// Self-tests of the benchmark's own helpers.  Run with
//   ctest --test-dir .bench_build/perfbench
// or `python3 perfbench/run.py --selftest`.  Exits non-zero on the first
// failed check (checks stay active in every build type).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(expr) check((expr), #expr, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_tail_rule() {
  using perfbench::tail_percentile;
  // n = 1006 leaves 10.06 samples beyond p99 and 1.006 beyond p99.9.
  CHECK(tail_percentile(1006) == 99.0);
  CHECK(tail_percentile(1000) == 99.0);  // exactly 10 beyond
  CHECK(tail_percentile(999) == 95.0);
  CHECK(tail_percentile(10000) == 99.9);
  CHECK(tail_percentile(100) == 90.0);
  CHECK(tail_percentile(40) == 75.0);
  CHECK(!tail_percentile(10).has_value());
  CHECK(!tail_percentile(39).has_value());

  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  const perfbench::LatencySummary s = perfbench::summarize(ten);
  CHECK(!s.has_tail);
  CHECK(near(s.p50, 5.5));
  CHECK(near(s.tail, s.p50));
  CHECK(perfbench::describe_tail(s).rfind("p50, no tail: n=10", 0) == 0);

  std::vector<double> many;
  for (int i = 0; i < 1006; ++i) many.push_back(i);
  const perfbench::LatencySummary m = perfbench::summarize(many);
  CHECK(m.has_tail && m.tail_pct == 99.0);
  CHECK(near(m.tail, 0.99 * 1005));
  CHECK(perfbench::describe_tail(m) == "p99 (n=1006)");
}

void test_percentile() {
  CHECK(near(perfbench::percentile({4, 1, 3, 2}, 50), 2.5));
  CHECK(near(perfbench::percentile({4, 1, 3, 2}, 0), 1));
  CHECK(near(perfbench::percentile({4, 1, 3, 2}, 100), 4));
  CHECK(near(perfbench::percentile({}, 50), 0));
  CHECK(near(perfbench::median({3, 1, 2}), 2));
}

void test_fractions() {
  const perfbench::Fraction f{41000 - 18, 41000};
  CHECK(f.counts() == "40982/41000");
  CHECK(near(f.value(), 40982.0 / 41000.0));
  CHECK(perfbench::Fraction{}.value() == 0.0);
  CHECK(perfbench::Fraction{}.counts() == "0/0");
}

void test_equations_residual() {
  // synthesize 10 ms = reduce 1 + assign 2 + hazards 0.5 + clear 2.5 + rest.
  CHECK(near(perfbench::equations_residual_ms(10, 1, 2, 0.5, 2.5), 4));
  // Not clamped: standalone layers slower than their share inside synthesize.
  CHECK(near(perfbench::equations_residual_ms(3, 1, 1, 0.5, 1), -0.5));
}

void test_json_number() {
  for (const double v : {0.1, 1.0 / 3.0, 12345.678901234567, 2e-7}) {
    CHECK(std::stod(perfbench::json_number(v)) == v);
  }
  CHECK(perfbench::json_number(NAN) == "0");
}

void test_tracer_self_time() {
  perfbench::Tracer tr;
  {
    const perfbench::SpanGuard job(&tr, "job", 7);
    const perfbench::SpanGuard child(&tr, "child", 7);
  }
  CHECK(tr.spans().size() == 2);
  CHECK(tr.spans()[1].parent == 0 && tr.spans()[1].job == 7);
  const auto self = tr.self_ms_by_name();
  CHECK(near(self.at("job") + self.at("child"), tr.spans()[0].ms()));
  CHECK(tr.to_tsv().find("\tchild\t") != std::string::npos);
}

void test_seed_determinism() {
  using perfbench::Workload;
  for (const Workload w : {Workload::kHarderBatch, Workload::kHardestBatch}) {
    const std::string a = perfbench::job_list_bytes(perfbench::make_jobs(w, 1));
    const std::string b = perfbench::job_list_bytes(perfbench::make_jobs(w, 1));
    const std::string c = perfbench::job_list_bytes(perfbench::make_jobs(w, 2));
    CHECK(a == b);
    CHECK(a != c);
  }
  // The seed only orders the pinned tables of a workload.
  const auto harder = perfbench::make_jobs(Workload::kHarderBatch, 1);
  CHECK(harder.jobs.size() == static_cast<std::size_t>(perfbench::kHarderJobs));
  CHECK(std::count(harder.pinned.begin(), harder.pinned.end(), true) == perfbench::kHarderJobs);
  std::vector<std::string> names_1, names_2;
  for (const auto& j : harder.jobs) names_1.push_back(j.name);
  for (const auto& j : perfbench::make_jobs(Workload::kHarderBatch, 2).jobs) {
    names_2.push_back(j.name);
  }
  CHECK(names_1 != names_2);
  std::sort(names_1.begin(), names_1.end());
  std::sort(names_2.begin(), names_2.end());
  CHECK(names_1 == names_2);
  CHECK(names_1.front() == "harder-12x5-0000");

  // The walk probe holds the known walk failures and does not vary.
  const auto probe = perfbench::make_walk_probe();
  CHECK(probe.jobs.size() == 205);
  CHECK(probe.jobs[5 + 12].name == "gen-6x3-0012");
  CHECK(perfbench::job_list_bytes(probe) ==
        perfbench::job_list_bytes(perfbench::make_walk_probe()));

  const std::string s1 = perfbench::job_list_bytes(perfbench::make_serve_stream(1));
  CHECK(s1 == perfbench::job_list_bytes(perfbench::make_serve_stream(1)));
  CHECK(s1 != perfbench::job_list_bytes(perfbench::make_serve_stream(2)));
  const auto serve = perfbench::make_serve_stream(1);
  CHECK(serve.stream.size() == serve.jobs.size() * perfbench::kServeRepeats);
}

}  // namespace

int main() {
  test_tail_rule();
  test_percentile();
  test_fractions();
  test_equations_residual();
  test_json_number();
  test_tracer_self_time();
  test_seed_determinism();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
