// In-memory spans for the traced run.  The benchmark opens a span around
// each public call it makes into a layer; nothing inside the program is
// instrumented.  Spans are written out once, when the run ends.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< static string: the layer call
    int job = -1;           ///< shared by every span of one job
    int parent = -1;        ///< index of the enclosing span, -1 at the root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    [[nodiscard]] double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  /// Opens a span under the innermost open one; returns its index.
  int begin(const char* name, int job);
  /// Closes span `index`, which must be the innermost open one (a
  /// mismatch is reported by self_ms_by_name, not here: SpanGuard calls
  /// this from a destructor).
  void end(int index) noexcept;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span name: a span's duration minus the part of it that
  /// its child spans cover, summed over spans of that name.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;

  /// One line per span: job, index, parent, name, start_ns, end_ns
  /// (tab-separated, times relative to the first span).
  [[nodiscard]] std::string to_tsv() const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
  bool nesting_broken_ = false;
};

/// Scoped span; a null tracer records nothing.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, const char* name, int job)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, job) : -1) {}
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// The span's index in Tracer::spans(); -1 without a tracer.
  [[nodiscard]] int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
