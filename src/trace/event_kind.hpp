// The engine's event vocabulary (docs/OBSERVABILITY.md, "Engine event
// vocabulary").
//
// One enum names every fact the communication engine records, and one name
// table spells it in Chrome traces, CSV dumps and postmortem bundles. Both
// expand from trace/event_kinds.def, which also routes each kind to its
// sinks for core::event_route (core/engine_events.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

namespace rails::trace {

enum class EventKind : std::uint8_t {
#define RAILS_EVENT(kind, name, sinks, stat, counter) kind,
#include "trace/event_kinds.def"
#undef RAILS_EVENT
};

inline constexpr std::size_t kEventKindCount = 0
#define RAILS_EVENT(kind, name, sinks, stat, counter) +1
#include "trace/event_kinds.def"
#undef RAILS_EVENT
    ;

/// Stable name of `kind` ("submit", "chunk", "slo-alert", ...).
const char* to_string(EventKind kind);

}  // namespace rails::trace
