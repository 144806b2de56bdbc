#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::optional<double> tail_percentile(std::size_t n) {
  for (const double p : kTailLadder) {
    // Compare in integer tenths of a percent: n*(1000 - 10p) >= 10*1000.
    const auto tenths = static_cast<std::uint64_t>(std::llround(p * 10));
    if (static_cast<std::uint64_t>(n) * (1000 - tenths) >= 10'000) return p;
  }
  return std::nullopt;
}

LatencySummary summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.n = samples.size();
  s.p50 = percentile(samples, 50);
  s.tail = s.p50;
  if (const auto p = tail_percentile(s.n)) {
    s.has_tail = true;
    s.tail_pct = *p;
    s.tail = percentile(samples, *p);
  }
  return s;
}

std::string describe_tail(const LatencySummary& s) {
  char buf[128];
  if (s.has_tail) {
    std::snprintf(buf, sizeof(buf), "p%g (n=%zu)", s.tail_pct, s.n);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "p50, no tail: n=%zu leaves <10 samples beyond p%g", s.n,
                  kTailLadder[std::size(kTailLadder) - 1]);
  }
  return buf;
}

double Fraction::value() const {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string Fraction::counts() const {
  return std::to_string(num) + "/" + std::to_string(den);
}

double median(std::vector<double> values) { return percentile(std::move(values), 50); }

double equations_residual_ms(double synthesize_ms, double reduce_ms,
                             double assign_ms, double hazards_ms,
                             double clear_ms) {
  return synthesize_ms - reduce_ms - assign_ms - hazards_ms - clear_ms;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
