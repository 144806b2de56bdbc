#include "trace.hpp"

#include <stdexcept>

namespace perfbench {

int Tracer::begin(const char* name, int job) {
  Span s;
  s.name = name;
  s.job = job;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int index) noexcept {
  if (open_.empty() || open_.back() != index) {
    nesting_broken_ = true;
    return;
  }
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  if (nesting_broken_ || !open_.empty()) {
    throw std::logic_error("Tracer: spans were not closed innermost-first");
  }
  // Children of one span run one after another, so their durations add
  // up to the part of the parent they cover.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.ms();
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].ms() - child_ms[i];
  }
  return out;
}

std::string Tracer::to_tsv() const {
  std::string out = "job\tspan\tparent\tname\tstart_ns\tend_ns\n";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += std::to_string(s.job) + "\t" + std::to_string(i) + "\t" +
           std::to_string(s.parent) + "\t" + s.name + "\t" +
           std::to_string(s.start_ns - t0) + "\t" +
           std::to_string(s.end_ns - t0) + "\n";
  }
  return out;
}

}  // namespace perfbench
