// Gate-level vs cover-level Eichelberger verification cost.
//
// The cover-level verifier (sim/ternary_verify) evaluates the machine's
// SOP covers; the gate-level verifier (sim/ternary_netsim) re-derives
// every verdict from the exported netlist, running each feedback cut's
// compiled cone tape once per fixpoint pass.  Both are lane evaluators
// of one kernel that checks 64 transitions per word, walk the same
// transitions and must agree exactly; the interesting number is what
// the structural detour costs per transition.  The summary table also
// reports the full loop the CI gate runs per corpus job: export ->
// parse_verilog -> gate-level verify, and aborts unless both levels
// equal the scalar one-transition-at-a-time kernel (tests/oracles) on
// every machine it prints.  The *Hardest cases time a golden
// hardest-20x6 machine, the shape that dominates the corpus, with the
// scalar kernel beside the lane kernel as the before/after pair.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "oracles/ternary_reference.hpp"
#include "sim/ternary_netsim.hpp"
#include "sim/ternary_verify.hpp"

namespace {

using seance::bench_suite::table1_suite;
using seance::sim::TernaryReport;

bool same_report(const TernaryReport& a, const TernaryReport& b) {
  return a.transitions_checked == b.transitions_checked &&
         a.procedure_a_violations == b.procedure_a_violations &&
         a.procedure_b_violations == b.procedure_b_violations &&
         a.fixpoint_overruns == b.fixpoint_overruns &&
         a.first_failure == b.first_failure;
}

/// The first job of the golden corpus's hardest-20x6 stream.
const seance::core::FantomMachine& hardest_machine() {
  static const seance::core::FantomMachine machine = [] {
    seance::driver::BatchRunner runner;
    runner.add_hardest_generated(1, /*base_seed=*/1);
    const seance::driver::JobSpec& job = runner.jobs().front();
    return seance::core::synthesize(job.table, job.options);
  }();
  return machine;
}

void print_comparison() {
  std::vector<std::pair<std::string, seance::core::FantomMachine>> machines;
  for (const auto& bench : table1_suite()) {
    machines.emplace_back(bench.name,
                          seance::core::synthesize(seance::bench_suite::load(bench)));
  }
  machines.emplace_back("hardest-20x6-0000", hardest_machine());

  std::printf(
      "\n=== Eichelberger verification: covers vs exported netlist ===\n");
  std::printf("%-17s | %11s | %5s | %5s | %7s | %10s\n", "Benchmark",
              "transitions", "A", "B", "agree", "gates");
  std::printf(
      "------------------+-------------+-------+-------+---------+-----------\n");
  for (const auto& [name, machine] : machines) {
    const TernaryReport cover = seance::sim::ternary_verify(machine);
    seance::netlist::Netlist netlist;
    (void)seance::netlist::build_fantom(machine, netlist);
    const auto reimported = seance::netlist::parse_verilog(
        seance::netlist::to_verilog(netlist, "fantom"));
    const TernaryReport gate = seance::sim::gate_ternary_verify(reimported, machine);
    if (!same_report(cover, seance::sim::reference_ternary_verify(machine)) ||
        !same_report(gate,
                     seance::sim::reference_gate_ternary_verify(reimported, machine))) {
      std::fprintf(stderr, "FATAL: %s: lane kernel differs from the scalar kernel\n",
                   name.c_str());
      std::abort();
    }
    const bool agree =
        cover.procedure_a_violations == gate.procedure_a_violations &&
        cover.procedure_b_violations == gate.procedure_b_violations &&
        cover.transitions_checked == gate.transitions_checked;
    std::printf("%-17s | %11d | %5d | %5d | %7s | %10d\n", name.c_str(),
                gate.transitions_checked, gate.procedure_a_violations,
                gate.procedure_b_violations, agree ? "yes" : "NO",
                reimported.stats().logic_gates);
  }
  std::printf("\n");
}

template <class Verify>
void time_verify(benchmark::State& state, Verify verify) {
  std::int64_t transitions = 0;
  for (auto _ : state) {
    const TernaryReport report = verify();
    transitions += report.transitions_checked;
    benchmark::DoNotOptimize(report);
  }
  state.counters["transitions_per_s"] = benchmark::Counter(
      static_cast<double>(transitions), benchmark::Counter::kIsRate);
}

void BM_CoverTernary(benchmark::State& state) {
  const auto& bench = table1_suite()[static_cast<std::size_t>(state.range(0))];
  const auto machine =
      seance::core::synthesize(seance::bench_suite::load(bench));
  time_verify(state, [&] { return seance::sim::ternary_verify(machine); });
  state.SetLabel(bench.name);
}

void BM_GateTernary(benchmark::State& state) {
  const auto& bench = table1_suite()[static_cast<std::size_t>(state.range(0))];
  const auto machine =
      seance::core::synthesize(seance::bench_suite::load(bench));
  seance::netlist::Netlist netlist;
  (void)seance::netlist::build_fantom(machine, netlist);
  time_verify(state,
              [&] { return seance::sim::gate_ternary_verify(netlist, machine); });
  state.SetLabel(bench.name);
}

// The whole per-job CI gate: export, re-import, verify the re-import.
void BM_RoundTripVerify(benchmark::State& state) {
  const auto& bench = table1_suite()[static_cast<std::size_t>(state.range(0))];
  const auto machine =
      seance::core::synthesize(seance::bench_suite::load(bench));
  for (auto _ : state) {
    seance::netlist::Netlist netlist;
    (void)seance::netlist::build_fantom(machine, netlist);
    const std::string verilog = seance::netlist::to_verilog(netlist, "fantom");
    const auto reimported = seance::netlist::parse_verilog(verilog);
    const auto report = seance::sim::gate_ternary_verify(reimported, machine);
    benchmark::DoNotOptimize(report);
  }
  state.SetLabel(bench.name);
}

void BM_CoverTernaryHardest(benchmark::State& state) {
  const auto& machine = hardest_machine();
  time_verify(state, [&] { return seance::sim::ternary_verify(machine); });
}

void BM_GateTernaryHardest(benchmark::State& state) {
  const auto& machine = hardest_machine();
  seance::netlist::Netlist netlist;
  (void)seance::netlist::build_fantom(machine, netlist);
  time_verify(state,
              [&] { return seance::sim::gate_ternary_verify(netlist, machine); });
}

void BM_CoverTernaryScalarHardest(benchmark::State& state) {
  const auto& machine = hardest_machine();
  time_verify(state, [&] { return seance::sim::reference_ternary_verify(machine); });
}

void BM_GateTernaryScalarHardest(benchmark::State& state) {
  const auto& machine = hardest_machine();
  seance::netlist::Netlist netlist;
  (void)seance::netlist::build_fantom(machine, netlist);
  time_verify(state, [&] {
    return seance::sim::reference_gate_ternary_verify(netlist, machine);
  });
}

BENCHMARK(BM_CoverTernary)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GateTernary)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RoundTripVerify)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CoverTernaryHardest)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GateTernaryHardest)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CoverTernaryScalarHardest)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GateTernaryScalarHardest)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
