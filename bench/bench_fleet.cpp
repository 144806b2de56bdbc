// Fleet-layer coordination overhead — the lease tax per slice.
//
// The lease sits on every slice's critical path, local `--shards` runs
// included (acquire before the worker spawns, heartbeats while it runs,
// complete/abandon after), so its cost bounds how fine --lease-units can
// usefully cut a corpus: a DirBackend cycle is a handful of filesystem
// operations, and it must stay orders of magnitude under a single
// synthesis job for 16-way unit granularity to be free.  The steal path
// prices a dead-runner recovery.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "driver/shard.hpp"
#include "fleet/dir.hpp"
#include "fleet/fleet.hpp"

namespace {

namespace fs = std::filesystem;
using seance::driver::ShardPlan;
using seance::fleet::DirBackend;
using seance::fleet::Slice;

std::vector<Slice> bench_slices(int units, const std::string& dir) {
  std::vector<std::string> names;
  for (int i = 0; i < units; ++i) names.push_back("job-" + std::to_string(i));
  return seance::fleet::make_slices(ShardPlan::round_robin(units, units),
                                    names, {}, dir);
}

std::string fresh_dir(const char* name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

/// One full claim -> heartbeat -> complete cycle per slice through the
/// shared directory: temp write + hard link, nonce read-back + mtime
/// bump, done-marker rename.
void BM_DirBackendCycle(benchmark::State& state) {
  const std::string dir = fresh_dir("seance_bench_fleet_dir");
  const std::vector<Slice> slices = bench_slices(16, dir);
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    DirBackend lease(dir, {.runner_id = "bench", .lease_ttl_ms = 60000});
    state.ResumeTiming();
    for (const Slice& s : slices) {
      benchmark::DoNotOptimize(lease.acquire(s));
      benchmark::DoNotOptimize(lease.heartbeat(s));
      benchmark::DoNotOptimize(lease.complete(s));
    }
  }
  state.counters["slices"] = static_cast<double>(slices.size());
}
BENCHMARK(BM_DirBackendCycle);

/// Dead-runner recovery: the victim abandons (backdated mtime), the
/// thief steals (replace + nonce verify) and completes.
void BM_DirBackendSteal(benchmark::State& state) {
  const std::string dir = fresh_dir("seance_bench_fleet_steal");
  const std::vector<Slice> slices = bench_slices(16, dir);
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    DirBackend victim(dir, {.runner_id = "victim", .lease_ttl_ms = 60000});
    DirBackend thief(dir, {.runner_id = "thief", .lease_ttl_ms = 60000});
    for (const Slice& s : slices) {
      benchmark::DoNotOptimize(victim.acquire(s));
      victim.abandon(s, "bench");
    }
    state.ResumeTiming();
    for (const Slice& s : slices) {
      benchmark::DoNotOptimize(thief.acquire(s));
      benchmark::DoNotOptimize(thief.complete(s));
    }
  }
  state.counters["slices"] = static_cast<double>(slices.size());
}
BENCHMARK(BM_DirBackendSteal);

}  // namespace

BENCHMARK_MAIN();
