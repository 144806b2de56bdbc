// Experiment A2 — the Quine-McCluskey engine of §5.2.
//
// Every SEANCE equation (Z, SSD, fsv, Y) is reduced with this engine, so
// its scaling over variable count and ON-set density bounds the whole
// flow.  Sweeps essential-SOP and all-primes modes on random functions,
// prints a before/after table against the retained reference covering
// path (qm_reference.hpp), and times the full pipeline on the hard
// 8-state / 4-input generator shape whose equations live in the same
// variable range.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <random>
#include <string_view>

#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "logic/prime_engine.hpp"
#include "logic/qm.hpp"
#include "oracles/qm_reference.hpp"

namespace {

struct Func {
  std::vector<seance::logic::Minterm> on;
  std::vector<seance::logic::Minterm> dc;
};

Func random_function(int num_vars, double p_on, double p_dc, std::uint64_t seed) {
  Func f;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  for (seance::logic::Minterm m = 0; m < (1u << num_vars); ++m) {
    const double r = dist(rng);
    if (r < p_on) {
      f.on.push_back(m);
    } else if (r < p_on + p_dc) {
      f.dc.push_back(m);
    }
  }
  return f;
}

void print_table() {
  std::printf("\n=== Quine-McCluskey scaling (random functions, 30%% ON / 20%% DC) ===\n");
  std::printf("%6s | %8s | %10s | %10s\n", "vars", "primes", "ess. cubes", "all-prime");
  std::printf("-------+----------+------------+-----------\n");
  for (int vars = 4; vars <= 12; ++vars) {
    const Func f = random_function(vars, 0.3, 0.2, 97);
    const auto primes = seance::logic::prime_engine::compute_primes(vars, f.on, f.dc);
    const auto essential = seance::logic::select_cover(
        vars, f.on, f.dc, seance::logic::CoverMode::kEssentialSop);
    const auto all = seance::logic::all_primes_cover(vars, f.on, f.dc);
    std::printf("%6d | %8zu | %10zu | %10zu\n", vars, primes.size(),
                essential.size(), all.size());
  }
  std::printf("\n");
}

// Before/after: the seed covering path (sorted vectors + binary_search)
// against the packed-bitset engine on identical functions.  Variables
// 9-10 are the arity range of generated 8-state / 4-input table
// equations (4 inputs + up to 5 state variables + fsv).  Opt-in via
// --compare-engines: the reference side alone costs ~7 s, which would
// dominate every filtered run (CI smoke included).
void print_engine_comparison() {
  using Clock = std::chrono::steady_clock;
  std::printf("=== covering engine before/after (essential-SOP, identical inputs) ===\n");
  std::printf("%6s | %12s | %12s | %9s | %9s\n", "vars", "reference ms",
              "bitset ms", "ref size", "new size");
  std::printf("-------+--------------+--------------+-----------+----------\n");
  for (int vars = 7; vars <= 10; ++vars) {
    const Func f = random_function(vars, 0.3, 0.2, 97);
    const auto t0 = Clock::now();
    const auto before = seance::logic::reference_select_cover(
        vars, f.on, f.dc, seance::logic::CoverMode::kEssentialSop);
    const auto t1 = Clock::now();
    const auto after = seance::logic::select_cover(
        vars, f.on, f.dc, seance::logic::CoverMode::kEssentialSop);
    const auto t2 = Clock::now();
    const double ref_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double new_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
    std::printf("%6d | %12.2f | %12.3f | %9zu | %9zu\n", vars, ref_ms, new_ms,
                before.size(), after.size());
  }
  std::printf("\n");
}

void BM_ComputePrimes(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const Func f = random_function(vars, 0.3, 0.2, 97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seance::logic::prime_engine::compute_primes(vars, f.on, f.dc));
  }
}
BENCHMARK(BM_ComputePrimes)->DenseRange(4, 12)->Unit(benchmark::kMicrosecond);

void BM_EssentialSop(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const Func f = random_function(vars, 0.3, 0.2, 97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seance::logic::select_cover(
        vars, f.on, f.dc, seance::logic::CoverMode::kEssentialSop));
  }
}
BENCHMARK(BM_EssentialSop)->DenseRange(4, 11)->Unit(benchmark::kMicrosecond);

// The "before" engine on the same functions.  Kept to 4-9 variables:
// the reference exact path needs seconds per call at 9+.
void BM_EssentialSopReference(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const Func f = random_function(vars, 0.3, 0.2, 97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seance::logic::reference_select_cover(
        vars, f.on, f.dc, seance::logic::CoverMode::kEssentialSop));
  }
}
BENCHMARK(BM_EssentialSopReference)->DenseRange(4, 9)->Unit(benchmark::kMicrosecond);

void BM_AllPrimes(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const Func f = random_function(vars, 0.3, 0.2, 97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seance::logic::all_primes_cover(vars, f.on, f.dc));
  }
}
BENCHMARK(BM_AllPrimes)->DenseRange(4, 11)->Unit(benchmark::kMicrosecond);

// Full pipeline on the hard canonical generator shape (8 states /
// 4 inputs): QM covering dominates this wall time, so the counter tracks
// the batch-corpus improvement end to end.
void BM_SynthesizeHardShape(benchmark::State& state) {
  seance::bench_suite::GeneratorOptions gen = seance::driver::kHardShape;
  gen.seed = seance::driver::derive_seed(1, static_cast<std::uint64_t>(state.range(0)));
  const auto table = seance::bench_suite::generate(gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seance::core::synthesize(table));
  }
}
BENCHMARK(BM_SynthesizeHardShape)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip our flag before google-benchmark sees (and rejects) it.
  bool compare_engines = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--compare-engines") {
      compare_engines = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  print_table();
  if (compare_engines) print_engine_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
