// The engine event vocabulary (docs/OBSERVABILITY.md, "Engine event
// vocabulary"): every trace::EventKind has one unique name, reaches the
// sinks its plane promises, and keeps the spelling that Chrome traces and
// postmortem bundles have always used.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine_events.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/tracer.hpp"

namespace rails {
namespace {

using trace::EventKind;

std::vector<EventKind> all_kinds() {
  std::vector<EventKind> kinds;
  for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
    kinds.push_back(static_cast<EventKind>(k));
  }
  return kinds;
}

// The Tracer's kinds and the flight recorder's kinds, spelled as traces and
// bundles printed them before the two enums were merged.
const std::vector<std::string> kDataPlane = {"submit",        "eager-emit",
                                             "offload-signal", "chunk",
                                             "send-complete", "recv-complete",
                                             "failover"};
const std::vector<std::string> kTracedOnly = {"recv-posted", "rts", "cts"};
const std::vector<std::string> kControlPlane = {
    "offload-push",    "tx-error",        "chunk-timeout",    "quarantine",
    "reprobe",         "trust-demotion",  "trust-promotion",  "scale-correction",
    "resample",        "trigger",         "corrupt-detected", "retransmit",
    "retry-exhausted", "dup-suppressed",  "slo-alert"};

bool contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(EventVocabulary, EveryKindHasOneUniqueName) {
  std::set<std::string> seen;
  for (const EventKind kind : all_kinds()) {
    const std::string name = trace::to_string(kind);
    EXPECT_NE(name, "?") << static_cast<int>(kind);
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
  // Every name the Tracer and the flight recorder ever printed still exists.
  for (const auto* names : {&kDataPlane, &kTracedOnly, &kControlPlane}) {
    for (const std::string& name : *names) EXPECT_EQ(seen.count(name), 1u) << name;
  }
  EXPECT_STREQ(trace::to_string(static_cast<EventKind>(trace::kEventKindCount)), "?");
}

// Data-plane kinds are traced and mirrored into the flight recorder; the
// handshake and receive-post kinds are traced only; control-plane kinds are
// flight-only; everything else only counts. Checked both in the routing
// table and by emitting every kind once into live sinks.
TEST(EventVocabulary, EachKindReachesTheSinksOfItsPlane) {
  trace::Tracer tracer;
  trace::FlightRecorder flight(256);
  core::EventFanout fanout(/*node=*/3, /*rail_count=*/2);
  fanout.set_tracer(&tracer);
  fanout.set_flight_recorder(&flight);

  std::vector<std::string> want_traced;
  std::vector<std::string> want_flight;
  for (const EventKind kind : all_kinds()) {
    const std::string name = trace::to_string(kind);
    const bool traced = contains(kDataPlane, name) || contains(kTracedOnly, name);
    const bool flight_recorded =
        contains(kDataPlane, name) || contains(kControlPlane, name);
    const std::uint8_t sinks = core::event_route(kind).sinks;
    EXPECT_EQ((sinks & core::EventRoute::kTraced) != 0, traced) << name;
    EXPECT_EQ((sinks & core::EventRoute::kFlight) != 0, flight_recorded) << name;
    if (traced) want_traced.push_back(name);
    if (flight_recorded) want_flight.push_back(name);
    fanout.emit(kind, {.msg_id = 7, .rail = 1, .bytes = 64, .nic_end = 90, .a = 1, .b = 2},
                /*now=*/50);
  }

  std::vector<std::string> got_traced;
  for (const trace::TraceEvent& e : tracer.snapshot()) {
    got_traced.push_back(trace::to_string(e.kind));
    EXPECT_EQ(e.node, 3u);
    EXPECT_EQ(e.time, 50);
    EXPECT_EQ(e.bytes, 64u);
  }
  EXPECT_EQ(got_traced, want_traced);

  std::vector<std::string> got_flight;
  for (const trace::FlightRecord& r : flight.snapshot()) {
    const std::string name = trace::to_string(r.kind);
    got_flight.push_back(name);
    // Data-plane records carry (bytes, nic_end); control-plane ones (a, b).
    const bool data_plane = contains(kDataPlane, name);
    EXPECT_EQ(r.a, data_plane ? 64 : 1) << name;
    EXPECT_EQ(r.b, data_plane ? 90 : 2) << name;
  }
  EXPECT_EQ(got_flight, want_flight);
}

// `railsctl postmortem` renders the kind column from the bundle's names.
TEST(EventVocabulary, PostmortemRendersEveryFlightKindByName) {
  trace::FlightRecorder flight(64);
  std::vector<std::string> want;
  for (const EventKind kind : all_kinds()) {
    const std::string name = trace::to_string(kind);
    if (!contains(kDataPlane, name) && !contains(kControlPlane, name)) continue;
    flight.record({static_cast<SimTime>(want.size()) * 1000, kind, 0, 0, 0, 0, 0});
    want.push_back(name);
  }
  std::stringstream bundle;
  flight.write_bundle(bundle, "vocabulary", "every flight kind", 0);
  std::ostringstream rendered;
  ASSERT_TRUE(trace::FlightRecorder::render_postmortem(bundle, rendered));

  // Event rows follow the column header; the kind is each row's 2nd field.
  std::istringstream lines(rendered.str());
  std::vector<std::string> got;
  bool in_events = false;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("time (us)") != std::string::npos) {
      in_events = true;
      continue;
    }
    if (!in_events) continue;
    std::istringstream row(line);
    std::string time;
    std::string kind;
    if (!(row >> time >> kind)) break;
    got.push_back(kind);
  }
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace rails
