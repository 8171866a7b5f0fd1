#include "sampling/profile.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.hpp"

namespace rails::sampling {

PerfProfile::PerfProfile(std::vector<SamplePoint> points) : points_(std::move(points)) {
  normalize();
}

void PerfProfile::add(std::size_t size, SimDuration duration) {
  points_.push_back({size, duration});
  normalize();
}

void PerfProfile::normalize() {
  std::sort(points_.begin(), points_.end(),
            [](const SamplePoint& a, const SamplePoint& b) { return a.size < b.size; });
  // Collapse duplicate sizes (keep the later measurement) and enforce
  // monotone durations: a larger message can never be estimated faster than
  // a smaller one, or the inverse query would be ill-defined. Measurement
  // noise can produce small inversions; clamping is the standard fix.
  std::vector<SamplePoint> out;
  out.reserve(points_.size());
  for (const auto& p : points_) {
    if (!out.empty() && out.back().size == p.size) out.pop_back();
    out.push_back(p);
  }
  for (std::size_t i = 1; i < out.size(); ++i) {
    out[i].duration = std::max(out[i].duration, out[i - 1].duration);
  }
  points_ = std::move(out);
}

std::size_t PerfProfile::min_size() const {
  RAILS_CHECK(!points_.empty());
  return points_.front().size;
}

std::size_t PerfProfile::max_size() const {
  RAILS_CHECK(!points_.empty());
  return points_.back().size;
}

SimDuration PerfProfile::estimate(std::size_t size) const {
  RAILS_CHECK_MSG(!points_.empty(), "estimate on an empty profile");
  if (points_.size() == 1) return points_[0].duration;

  // Locate the segment: the pair of consecutive samples bracketing `size`,
  // clamped to the first/last segment for extrapolation.
  auto hi = std::lower_bound(points_.begin(), points_.end(), size,
                             [](const SamplePoint& p, std::size_t s) { return p.size < s; });
  if (hi == points_.begin()) ++hi;
  if (hi == points_.end()) --hi;
  auto lo = hi - 1;

  const double dx = static_cast<double>(hi->size) - static_cast<double>(lo->size);
  const double dy = static_cast<double>(hi->duration) - static_cast<double>(lo->duration);
  const double slope = dx > 0 ? dy / dx : 0.0;
  const double est = static_cast<double>(lo->duration) +
                     slope * (static_cast<double>(size) - static_cast<double>(lo->size));
  // Extrapolating below the first sample must not go under 0.
  return std::max<SimDuration>(0, static_cast<SimDuration>(est));
}

std::size_t PerfProfile::max_bytes_within(SimDuration budget) const {
  RAILS_CHECK(!points_.empty());
  if (budget < 0) return 0;  // estimates are never negative
  // A flat tail fits everything: clamp at the first max_size * 2^k at or
  // above 1 TiB, where the doubling search this replaced stopped.
  std::size_t ceiling = std::max<std::size_t>(max_size(), 1);
  while (ceiling < (std::size_t{1} << 40)) ceiling <<= 1;

  // Solve the segment the budget falls in for the last size whose truncated
  // estimate fits: lo.duration + slope * (b - lo.size) < budget + 1.
  std::size_t guess = 0;
  if (points_.size() == 1) {
    guess = points_[0].duration <= budget ? ceiling : 0;
  } else {
    auto hi = std::upper_bound(points_.begin(), points_.end(), budget,
                               [](SimDuration b, const SamplePoint& p) { return b < p.duration; });
    if (hi == points_.begin()) ++hi;
    if (hi == points_.end()) --hi;
    const auto lo = hi - 1;
    const double dx = static_cast<double>(hi->size) - static_cast<double>(lo->size);
    const double dy = static_cast<double>(hi->duration) - static_cast<double>(lo->duration);
    const double slope = dx > 0 ? dy / dx : 0.0;
    if (slope <= 0.0) {
      guess = lo->duration <= budget ? ceiling : 0;
    } else {
      const double root =
          static_cast<double>(lo->size) +
          (static_cast<double>(budget) + 1.0 - static_cast<double>(lo->duration)) / slope;
      const double last = std::ceil(root) - 1.0;
      guess = last <= 0.0 ? 0
              : last >= static_cast<double>(ceiling) ? ceiling
                                                      : static_cast<std::size_t>(last);
    }
  }

  // Confirm against estimate() itself: the answer is a size that fits while
  // the next one does not, which costs two estimates when the guess is
  // right. Rounding can leave it a step off; walk toward the boundary with
  // doubling strides, then bisect. lo always fits, hi never does.
  const auto fits = [&](std::size_t b) { return estimate(b) <= budget; };
  std::size_t lo = 0;
  std::size_t hi = 0;
  if (fits(guess)) {
    if (guess == ceiling || !fits(guess + 1)) return guess;
    lo = guess + 1;
    for (std::size_t stride = 1;; stride <<= 1) {
      hi = std::min(ceiling, lo + stride);
      if (!fits(hi)) break;
      if (hi == ceiling) return ceiling;
      lo = hi;
    }
  } else {
    hi = guess;
    for (std::size_t stride = 1;; stride <<= 1) {
      if (hi == 0) return 0;  // not even an empty message fits
      lo = hi > stride ? hi - stride : 0;
      if (fits(lo)) break;
      hi = lo;
    }
  }
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    (fits(mid) ? lo : hi) = mid;
  }
  return lo;
}

double PerfProfile::asymptotic_bandwidth() const {
  RAILS_CHECK(points_.size() >= 2);
  const auto& a = points_[points_.size() - 2];
  const auto& b = points_.back();
  const double dx = static_cast<double>(b.size - a.size);
  const double dy = static_cast<double>(b.duration - a.duration);
  if (dy <= 0.0) return 0.0;
  return dx / dy * 1e3;  // bytes per ns -> MB/s
}

SimDuration PerfProfile::latency() const { return estimate(0); }

void PerfProfile::save(std::ostream& os) const {
  os << "# rails perf profile v1: size_bytes duration_ns\n";
  for (const auto& p : points_) os << p.size << ' ' << p.duration << '\n';
}

PerfProfile PerfProfile::load(std::istream& is) {
  std::vector<SamplePoint> points;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    SamplePoint p;
    if (ls >> p.size >> p.duration) points.push_back(p);
  }
  return PerfProfile(std::move(points));
}

void PerfProfile::save_file(const std::string& path) const {
  std::ofstream os(path);
  RAILS_CHECK_MSG(os.good(), "cannot open profile file for writing");
  save(os);
}

PerfProfile PerfProfile::load_file(const std::string& path) {
  std::ifstream is(path);
  RAILS_CHECK_MSG(is.good(), "cannot open profile file for reading");
  return load(is);
}

}  // namespace rails::sampling
