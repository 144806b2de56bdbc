// Front-of-pipeline (minimize + USTT assignment) benchmarks.
//
// Before/after tables against the retained seed implementations
// (reference_reduce / reference_assign_ustt) on the canonical corpus
// shapes.  The seed front half was quadratic three times over — pair-chart
// fixpoint sweeps, level-wise prime generation that re-pushed every
// subset once per parent, and an O(D^2) dichotomy dominance sweep — which
// at the hardest shape (20 states / 6 inputs) dominated job wall time.
// The packed-word engines are result-identical (see
// tests/test_minimize_equivalence.cpp, tests/test_assign_equivalence.cpp),
// so the table also cross-checks class/variable counts per row.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "assign/ustt.hpp"
#include "bench_suite/generator.hpp"
#include "driver/batch.hpp"
#include "flowtable/table.hpp"
#include "minimize/reduce.hpp"
#include "oracles/reduce_reference.hpp"
#include "oracles/ustt_reference.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using seance::flowtable::FlowTable;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

FlowTable shaped_table(const seance::bench_suite::GeneratorOptions& shape,
                       std::uint64_t index) {
  seance::bench_suite::GeneratorOptions gen = shape;
  gen.seed = seance::driver::derive_seed(1, index);
  return seance::bench_suite::generate(gen);
}

void print_shape_table(const char* label,
                       const seance::bench_suite::GeneratorOptions& shape,
                       int jobs) {
  std::printf("\n%s (%d states / %d inputs, %d jobs)\n", label, shape.num_states,
              shape.num_inputs, jobs);
  std::printf("%4s | %12s | %12s | %8s | %12s | %12s | %8s | %s\n", "job",
              "ref red ms", "new red ms", "speedup", "ref asn ms", "new asn ms",
              "speedup", "check");
  std::printf("-----+--------------+--------------+----------+--------------+"
              "--------------+----------+------\n");
  double ref_red_total = 0, new_red_total = 0, ref_asn_total = 0, new_asn_total = 0;
  for (int i = 0; i < jobs; ++i) {
    const FlowTable table = shaped_table(shape, static_cast<std::uint64_t>(i));
    const auto t0 = Clock::now();
    const auto ref_red = seance::minimize::reference_reduce(table);
    const auto t1 = Clock::now();
    const auto new_red = seance::minimize::reduce(table);
    const auto t2 = Clock::now();
    const auto ref_asn = seance::assign::reference_assign_ustt(ref_red.reduced);
    const auto t3 = Clock::now();
    const auto new_asn = seance::assign::assign_ustt(new_red.reduced);
    const auto t4 = Clock::now();
    const double rr = ms_between(t0, t1), nr = ms_between(t1, t2);
    const double ra = ms_between(t2, t3), na = ms_between(t3, t4);
    ref_red_total += rr;
    new_red_total += nr;
    ref_asn_total += ra;
    new_asn_total += na;
    const bool match = ref_red.classes == new_red.classes &&
                       ref_asn.num_vars == new_asn.num_vars;
    std::printf("%4d | %12.3f | %12.3f | %7.1fx | %12.3f | %12.3f | %7.1fx | %s\n",
                i, rr, nr, nr > 0 ? rr / nr : 0.0, ra, na,
                na > 0 ? ra / na : 0.0, match ? "match" : "MISMATCH");
  }
  std::printf("     | %12.3f | %12.3f | %7.1fx | %12.3f | %12.3f | %7.1fx | total\n",
              ref_red_total, new_red_total,
              new_red_total > 0 ? ref_red_total / new_red_total : 0.0,
              ref_asn_total, new_asn_total,
              new_asn_total > 0 ? ref_asn_total / new_asn_total : 0.0);
}

void print_table() {
  std::printf("=== minimize + USTT before/after (seed reference vs packed-word "
              "engines) ===\n");
  print_shape_table("harder shape", seance::driver::kHarderShape, 10);
  print_shape_table("hardest shape", seance::driver::kHardestShape, 10);
  std::printf("\n");
}

void BM_ReduceHardestShape(benchmark::State& state) {
  const FlowTable table =
      shaped_table(seance::driver::kHardestShape,
                   static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(seance::minimize::reduce(table));
  }
}
BENCHMARK(BM_ReduceHardestShape)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_ReduceReferenceHardestShape(benchmark::State& state) {
  const FlowTable table =
      shaped_table(seance::driver::kHardestShape,
                   static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(seance::minimize::reference_reduce(table));
  }
}
BENCHMARK(BM_ReduceReferenceHardestShape)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

void BM_AssignHardestShape(benchmark::State& state) {
  const FlowTable table =
      shaped_table(seance::driver::kHardestShape,
                   static_cast<std::uint64_t>(state.range(0)));
  const auto reduced = seance::minimize::reduce(table);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seance::assign::assign_ustt(reduced.reduced));
  }
}
BENCHMARK(BM_AssignHardestShape)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_AssignReferenceHardestShape(benchmark::State& state) {
  const FlowTable table =
      shaped_table(seance::driver::kHardestShape,
                   static_cast<std::uint64_t>(state.range(0)));
  const auto reduced = seance::minimize::reduce(table);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seance::assign::reference_assign_ustt(reduced.reduced));
  }
}
BENCHMARK(BM_AssignReferenceHardestShape)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
