// Sampled performance profile of one rail under one protocol.
//
// This is the data structure behind §III-C: "the sampled sizes that are the
// closest to the message size are retrieved ... the estimated transfer time
// is computed by the mean of a linear interpolation". A profile is a sorted
// table of (size, duration) points, typically at powers of two, measured by
// the Sampler at engine initialisation (or loaded from a previous run's
// file, like NewMadeleine's on-disk sampling cache).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rails::sampling {

struct SamplePoint {
  std::size_t size = 0;
  SimDuration duration = 0;
};

class PerfProfile {
 public:
  PerfProfile() = default;
  explicit PerfProfile(std::vector<SamplePoint> points);

  /// Adds one measurement; keeps the table sorted and duration-monotone.
  void add(std::size_t size, SimDuration duration);

  bool empty() const { return points_.empty(); }
  std::size_t point_count() const { return points_.size(); }
  const std::vector<SamplePoint>& points() const { return points_; }

  std::size_t min_size() const;
  std::size_t max_size() const;

  /// Estimated duration for an arbitrary size: linear interpolation between
  /// the two bracketing samples; linear extrapolation beyond either end
  /// using the nearest segment's marginal cost.
  SimDuration estimate(std::size_t size) const;

  /// Inverse query: the largest byte count whose estimated duration fits in
  /// `budget` (a flat tail clamps near 1 TiB); 0 when not even an empty
  /// message fits.
  /// Closed form: binary-search the samples for the bracketing segment,
  /// solve that segment, and confirm with estimate() — two calls unless
  /// rounding moved the root by a byte.
  std::size_t max_bytes_within(SimDuration budget) const;

  /// Asymptotic bandwidth (MB/s) from the last profile segment — the number
  /// an OpenMPI-style fixed-ratio splitter would use (§II-A).
  double asymptotic_bandwidth() const;

  /// Zero-size intercept of the first segment: the effective latency.
  SimDuration latency() const;

  // -- persistence (text format, one "size duration_ns" pair per line) ----
  void save(std::ostream& os) const;
  static PerfProfile load(std::istream& is);
  void save_file(const std::string& path) const;
  static PerfProfile load_file(const std::string& path);

 private:
  void normalize();
  std::vector<SamplePoint> points_;  // sorted by size; durations non-decreasing
};

}  // namespace rails::sampling
