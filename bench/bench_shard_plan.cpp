// Shard-plan and merge overhead — the orchestration tax of running a
// corpus across worker processes.
//
// Sharding only pays when split + merge cost stays negligible against
// the jobs themselves, and when the plan keeps the slowest worker close
// to the mean (the parent's wall clock is the max over workers).  The
// sweep prints the predicted makespan of the round-robin plan under the
// estimate_cost model for mixed-shape corpora; the timed benchmarks pin
// plan construction and store::merge throughput at corpus scale.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_suite/generator.hpp"
#include "driver/batch.hpp"
#include "driver/shard.hpp"
#include "store/store.hpp"

namespace {

using seance::driver::ShardPlan;

/// Synthetic per-job costs shaped like the golden corpus: a long tail of
/// cheap 6x3 jobs plus heavy hard/harder shapes at the end.
std::vector<double> mixed_costs(int jobs) {
  std::vector<double> costs;
  costs.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    if (i % 11 == 10) {
      costs.push_back(384.0);  // 12 states x 2^5 columns
    } else if (i % 5 == 4) {
      costs.push_back(128.0);  // 8 states x 2^4
    } else {
      costs.push_back(48.0);  // 6 states x 2^3
    }
  }
  return costs;
}

double makespan(const ShardPlan& plan, const std::vector<double>& costs) {
  double worst = 0;
  for (const auto& slice : plan.slices) {
    double load = 0;
    for (const int j : slice) load += costs[static_cast<std::size_t>(j)];
    worst = std::max(worst, load);
  }
  return worst;
}

void print_sweep() {
  std::printf("\n=== shard plans: predicted slowest-worker share (cost model) ===\n");
  std::printf("%6s %6s | %14s %14s\n", "jobs", "K", "total cost",
              "round-robin");
  for (const int jobs : {281, 2810}) {
    const std::vector<double> costs = mixed_costs(jobs);
    double total = 0;
    for (const double c : costs) total += c;
    for (const int k : {2, 4, 8, 16}) {
      const double rr = makespan(ShardPlan::round_robin(jobs, k), costs);
      std::printf("%6d %6d | %14.0f %10.0f (%4.2fx)\n", jobs, k, total, rr,
                  rr * k / total);
    }
  }
  std::printf("(x = slowest worker vs perfect split; 1.00x is linear scaling)\n\n");
}

void BM_RoundRobinPlan(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShardPlan::round_robin(jobs, 16));
  }
}
BENCHMARK(BM_RoundRobinPlan)->Arg(281)->Arg(100000);

/// store::merge over a K-way split of an N-job report — the parent-side
/// stitch cost after all workers finish.
void BM_StoreMerge(benchmark::State& state) {
  const int jobs = 2810;
  const int k = static_cast<int>(state.range(0));
  seance::store::CorpusIdentity identity;
  identity.corpus = "bench";
  std::vector<std::string> names;
  seance::driver::BatchReport whole;
  for (int i = 0; i < jobs; ++i) {
    seance::driver::JobResult r;
    r.name = "gen-6x3-" + std::to_string(i);
    r.gate_count = i;
    names.push_back(r.name);
    whole.jobs.push_back(std::move(r));
  }
  const ShardPlan plan = ShardPlan::round_robin(jobs, k);
  std::vector<seance::store::StoredReport> shards(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    auto& shard = shards[static_cast<std::size_t>(s)];
    shard.identity = identity;
    shard.identity.shard = std::to_string(s) + "/" + std::to_string(k);
    for (const int j : plan.slices[static_cast<std::size_t>(s)]) {
      shard.report.jobs.push_back(whole.jobs[static_cast<std::size_t>(j)]);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(seance::store::merge(identity, shards, names));
  }
  state.counters["jobs"] = jobs;
}
BENCHMARK(BM_StoreMerge)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  print_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
