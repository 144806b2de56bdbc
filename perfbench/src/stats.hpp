// Pure helpers of the benchmark: percentiles with the tail rule,
// fractions that keep their base counts, and the residual arithmetic of
// the traced run.  No timing and no I/O, so tests/test_helpers.cpp pins
// them exactly.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (0..100) of unsorted `samples`; 0 for
/// an empty set.
[[nodiscard]] double percentile(std::vector<double> samples, double pct);

/// Percentiles the tail is chosen from, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0};

/// The highest ladder percentile that has at least 10 of `n` samples
/// beyond it (n * (1 - p/100) >= 10); nullopt when none has.
[[nodiscard]] std::optional<double> tail_percentile(std::size_t n);

/// Per-job latency summary of one set of samples.
struct LatencySummary {
  std::size_t n = 0;
  double p50 = 0;
  /// Tail value; equals p50 when no ladder percentile qualifies.
  double tail = 0;
  /// The percentile `tail` was taken at (50 when none qualifies).
  double tail_pct = 50;
  bool has_tail = false;
};
[[nodiscard]] LatencySummary summarize(const std::vector<double>& samples);

/// "p99 (n=1006)" / "p50, no tail: n=8 leaves <10 samples beyond p75".
[[nodiscard]] std::string describe_tail(const LatencySummary& s);

/// A share reported together with its base counts.
struct Fraction {
  std::uint64_t num = 0;
  std::uint64_t den = 0;

  /// num/den; 0 when the base is empty.
  [[nodiscard]] double value() const;
  /// "num/den".
  [[nodiscard]] std::string counts() const;
};

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// The equation-building residual of one traced job: synthesize minus the
/// layers timed standalone in front of it (reduce, assign, hazards, TT
/// clear).  What is left is prime generation, covers and factoring.  Not
/// clamped: a negative value on a tiny job means the standalone calls ran
/// slower than their share inside synthesize, and summing keeps that
/// honest.
[[nodiscard]] double equations_residual_ms(double synthesize_ms,
                                           double reduce_ms, double assign_ms,
                                           double hazards_ms, double clear_ms);

/// `value` with every digit a double carries, as a JSON number.
[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench
