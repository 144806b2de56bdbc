// The SEANCE benchmark: one workload, one process, one synthesis at a time.
//
//   seance_perfbench --workload harder-batch|hardest-batch
//                    --seed N --seconds S --trace 0|1
//                    --golden FILE --out-dir DIR
//
// Set-up (timed kSetups times, median reported) builds the seeded job list,
// reads the golden corpus and allocates the worker's transposition table.
// The timed phase repeats the job list in passes until at least kMinPasses
// passes and S seconds are done; timings are medians over passes.  The
// oracles run outside the timed window: one untimed pass that keeps each
// machine, and the walk probe.  With --trace 1 a traced pass follows, with
// a span around every public layer call, and then the api layer's serve
// stream.  The last stdout line is the JSON result; README.md lists every
// metric.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/api.hpp"
#include "api/serve.hpp"
#include "assign/ustt.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "hazard/search.hpp"
#include "minimize/reduce.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "search/search.hpp"
#include "serve_session.hpp"
#include "sim/harness.hpp"
#include "sim/ternary_netsim.hpp"
#include "sim/ternary_verify.hpp"
#include "stats.hpp"
#include "store/store.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace api = seance::api;
namespace core = seance::core;
namespace driver = seance::driver;
namespace search = seance::search;
namespace sim = seance::sim;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Process user+sys CPU in ms (every thread, the server's too).
double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Keeps the process, and the server thread it starts, on the last CPU it
/// may use (the first ones take most interrupts): the closed-loop request
/// handoff then needs no cross-CPU wake-up, and no job migrates mid-run.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

struct Args {
  Workload workload{};
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string golden;   ///< tests/data/golden_corpus.csv
  std::string out_dir;  ///< where the traced run writes its spans
};

// Set-ups take milliseconds, so many of them give a steady median.
constexpr int kSetups = 41;
// At least two passes, so no timing rests on one pass.
constexpr int kMinPasses = 2;

/// Every flag is required; run.py passes them all.
bool parse_args(int argc, char** argv, Args& a) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = workload_from_string(value);
        if (!w) {
          std::fprintf(stderr, "unknown workload %s\n", value.c_str());
          return false;
        }
        a.workload = *w;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        a.trace = value == "1";
      } else if (flag == "--golden") {
        a.golden = value;
      } else if (flag == "--out-dir") {
        a.out_dir = value;
      } else {
        std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value.c_str());
      return false;
    }
    seen.insert(flag);
  }
  for (const char* flag : {"--workload", "--seed", "--seconds", "--trace", "--golden", "--out-dir"}) {
    if (seen.count(flag) == 0) {
      std::fprintf(stderr, "%s is required\n", flag);
      return false;
    }
  }
  return true;
}

/// The check set of every job: equation verify, cover ternary and the
/// gate-level ternary over the Verilog round trip; no watchdog, so no
/// second thread ever runs a synthesis.
driver::BatchOptions job_checks() {
  driver::BatchOptions o;
  o.threads = 1;
  o.verify = true;
  o.ternary = true;
  o.gate_ternary = true;
  return o;
}

api::ServeConfig serve_config() {
  api::ServeConfig c;
  c.verify = true;
  c.ternary = true;
  c.gate_ternary = true;
  return c;
}

/// The recipe that produced tests/data/golden_corpus.csv.
api::CorpusRequest golden_recipe() {
  api::CorpusRequest r;
  r.options = job_checks();
  r.options.job_timeout_ms = 120000;
  r.gen.seed = 1;
  r.extra = true;
  r.random_count = 200;
  r.hard_count = 50;
  r.harder_count = 25;
  r.hardest_count = 25;
  return r;
}

/// The golden corpus, checked against the recipe that produced it.
seance::store::StoredReport load_golden(const std::string& path) {
  seance::store::StoredReport golden = seance::store::load(path);
  const auto mismatches = seance::store::identity_mismatches(
      api::corpus_identity(golden_recipe()), golden.identity, true);
  if (!mismatches.empty()) {
    throw std::runtime_error("golden corpus recipe changed: " + mismatches.front());
  }
  return golden;
}

/// The golden row of every pinned job of `list`; empty for the others.
std::vector<std::string> golden_rows_of(const JobList& list,
                                        const seance::store::StoredReport& golden) {
  std::unordered_map<std::string, const driver::JobResult*> by_name;
  for (const auto& row : golden.report.jobs) by_name[row.name] = &row;
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < list.jobs.size(); ++i) {
    std::string row;
    if (list.pinned[i]) {
      const auto it = by_name.find(list.jobs[i].name);
      if (it == by_name.end()) throw std::runtime_error("no golden row for " + list.jobs[i].name);
      row = driver::to_csv_row(*it->second);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Everything the timed phase needs.  Built by prepare(), timed as setup_s.
struct Prepared {
  JobList list;
  double generate_ms = 0;
  std::vector<std::string> golden_rows;  ///< per job; empty when not pinned
  std::unique_ptr<search::TranspositionTable> tt;  ///< batch worker table
};

Prepared prepare(const Args& args) {
  Prepared p;
  const auto g0 = Clock::now();
  p.list = make_jobs(args.workload, args.seed);
  p.generate_ms = ms_between(g0, Clock::now());
  p.golden_rows = golden_rows_of(p.list, load_golden(args.golden));
  p.tt = std::make_unique<search::TranspositionTable>(core::SynthesisOptions{}.tt_mb << 20);
  return p;
}

/// One timed pass over the job list.
struct Pass {
  double wall_ms = 0;
  double cpu_ms = 0;
  std::vector<double> latency_ms;  ///< per job (batch) or request (serve)
  std::vector<std::string> rows;   ///< to_csv_row of each answer
  std::vector<bool> ok;            ///< row status ok
};

/// What api::run_jobs runs per job at one worker: run_job with no machine
/// kept, on the worker's table.
Pass run_batch_pass(Prepared& p) {
  const driver::BatchOptions checks = job_checks();
  Pass pass;
  std::vector<driver::JobResult> results(p.list.jobs.size());
  const double c0 = cpu_ms();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < p.list.jobs.size(); ++i) {
    const auto j0 = Clock::now();
    results[i] = driver::BatchRunner::run_job(p.list.jobs[i], checks, nullptr, p.tt.get());
    pass.latency_ms.push_back(ms_between(j0, Clock::now()));
  }
  pass.wall_ms = ms_between(t0, Clock::now());
  pass.cpu_ms = cpu_ms() - c0;
  for (const auto& r : results) {
    pass.rows.push_back(driver::to_csv_row(r));
    pass.ok.push_back(r.ok());
  }
  return pass;
}


/// Deterministic work counters of the traced pass.
struct LayerCounts {
  double states_removed = 0, state_vars = 0, fl_total = 0;
  double charts = 0, charts_truncated = 0, cover_cubes = 0, lower_bound = 0, gap = 0;
  double ternary_transitions = 0, gates = 0, verilog_bytes = 0;
  double tt_hits = 0, tt_misses = 0, tt_evictions = 0;
  double walk_steps = 0, walk_failures = 0;
  double equations_ms = 0;  ///< sum of per-job residuals
  double pipeline_ms = 0;   ///< what run_job does: synthesize + checks
};

/// Runs `body` inside a span; returns the span's milliseconds.
template <class Body>
double timed_span(Tracer& tr, const char* name, int job, Body&& body) {
  int index = -1;
  {
    const SpanGuard span(&tr, name, job);
    index = span.index();
    body();
  }
  return tr.spans()[static_cast<std::size_t>(index)].ms();
}

/// Milliseconds of the layers synthesize runs before it builds equations.
struct FrontMs {
  double clear = 0, reduce = 0, assign = 0, hazards = 0;
};

/// Times those layers standalone, in synthesize's order, on the worker
/// table.  The traced pass runs this for every job in a loop of its own,
/// ahead of the pipeline loop, so the pipeline meets the same cache state
/// as in the timed phase.  A job that throws here throws again in the
/// pipeline loop, which records it.
FrontMs traced_front(const driver::JobSpec& spec, search::TranspositionTable& tt, Tracer& tr,
                     int job) {
  FrontMs f;
  try {
    seance::flowtable::FlowTable prepared = spec.table;
    if (!prepared.is_normal_mode()) prepared.normalize_to_normal_mode();
    f.clear = timed_span(tr, "search.tt_clear", job, [&] { tt.clear(); });
    std::optional<seance::minimize::ReductionResult> reduction;
    if (spec.options.minimize_states && prepared.num_states() > 1) {
      f.reduce = timed_span(tr, "minimize.reduce", job, [&] {
        reduction = seance::minimize::reduce(prepared, spec.options.reduce, &tt);
      });
    }
    const seance::flowtable::FlowTable& reduced = reduction ? reduction->reduced : prepared;
    seance::assign::Assignment assignment;
    f.assign = timed_span(tr, "assign.assign_ustt", job, [&] {
      assignment = seance::assign::assign_ustt(reduced, spec.options.assign, &tt);
    });
    f.hazards = timed_span(tr, "hazard.find_hazards", job, [&] {
      (void)seance::hazard::find_hazards(
          seance::hazard::EncodedTable{&reduced, assignment.codes, assignment.num_vars});
    });
  } catch (const std::exception&) {
  }
  return f;
}

/// The sequence BatchRunner::run_job runs, one public call per span.  The
/// equation-building residual of synthesize subtracts `front`.
driver::JobResult traced_job(const driver::JobSpec& spec, search::TranspositionTable& tt,
                             Tracer& tr, int job, const FrontMs& front,
                             core::FantomMachine& machine, LayerCounts& counts) {
  const auto span_ms = [&](const char* name, auto&& body) {
    return timed_span(tr, name, job, body);
  };
  driver::JobResult r;
  r.name = spec.name;
  r.num_inputs = spec.table.num_inputs();
  r.num_outputs = spec.table.num_outputs();
  r.input_states = spec.table.num_states();
  try {
    const search::TtStats before = tt.stats();
    const double synth_ms = span_ms("core.synthesize", [&] {
      machine = core::synthesize(spec.table, spec.options, &tt);
    });
    const search::TtStats& after = tt.stats();
    counts.tt_hits += static_cast<double>(after.hits - before.hits);
    counts.tt_misses += static_cast<double>(after.misses - before.misses);
    counts.tt_evictions += static_cast<double>(after.evictions - before.evictions);
    counts.equations_ms += equations_residual_ms(synth_ms, front.reduce, front.assign,
                                                 front.hazards, front.clear);
    counts.pipeline_ms += synth_ms;

    r.synthesized_states = machine.table.num_states();
    r.state_vars = machine.layout.num_state_vars;
    r.fl_hazards = static_cast<int>(machine.hazards.fl.size());
    for (const auto& hl : machine.hazards.per_var) r.var_hazards += static_cast<int>(hl.size());
    r.depth = machine.depth_report();
    r.gate_count = machine.gate_count();
    r.cover_cubes = static_cast<int>(machine.cover_bounds.cubes);
    r.cover_gap = static_cast<int>(machine.cover_bounds.gap());
    counts.states_removed += r.input_states - r.synthesized_states;
    counts.state_vars += r.state_vars;
    counts.fl_total += r.fl_hazards;
    counts.charts += static_cast<double>(machine.cover_bounds.charts);
    counts.charts_truncated +=
        static_cast<double>(machine.cover_bounds.charts - machine.cover_bounds.proven);
    counts.cover_cubes += static_cast<double>(machine.cover_bounds.cubes);
    counts.lower_bound += static_cast<double>(machine.cover_bounds.lower_bound);
    counts.gap += static_cast<double>(machine.cover_bounds.gap());

    std::string why;
    counts.pipeline_ms += span_ms("core.verify_equations", [&] {
      r.equations_verified = core::verify_equations(machine, &why);
    });
    if (!r.equations_verified) {
      r.status = driver::JobStatus::kVerifyFailed;
      r.detail = why;
      return r;
    }
    sim::TernaryReport ternary;
    counts.pipeline_ms += span_ms("sim.ternary_verify", [&] { ternary = sim::ternary_verify(machine); });
    r.ternary_transitions = ternary.transitions_checked;
    r.ternary_a_violations = ternary.procedure_a_violations;
    r.ternary_b_violations = ternary.procedure_b_violations;
    counts.ternary_transitions += ternary.transitions_checked;

    seance::netlist::Netlist built;
    std::string verilog;
    counts.pipeline_ms += span_ms("netlist.export", [&] {
      (void)seance::netlist::build_fantom(machine, built);
      verilog = seance::netlist::to_verilog(built, "fantom");
    });
    counts.gates += built.size();
    counts.verilog_bytes += static_cast<double>(verilog.size());
    seance::netlist::Netlist reimported;
    counts.pipeline_ms += span_ms("netlist.parse_verilog", [&] {
      reimported = seance::netlist::parse_verilog(verilog);
    });
    bool stable = false;
    counts.pipeline_ms += span_ms("netlist.export", [&] {
      stable = seance::netlist::to_verilog(reimported, "fantom") == verilog;
    });
    if (!stable) {
      r.status = driver::JobStatus::kVerifyFailed;
      r.detail = "verilog round trip is not byte-stable";
      return r;
    }
    sim::TernaryReport gate;
    counts.pipeline_ms += span_ms("sim.gate_ternary_verify", [&] {
      gate = sim::gate_ternary_verify(reimported, machine);
    });
    r.gate_ternary_a_violations = gate.procedure_a_violations;
    r.gate_ternary_b_violations = gate.procedure_b_violations;
  } catch (const std::exception& e) {
    r.status = driver::JobStatus::kSynthesisError;
    r.detail = e.what();
  }
  return r;
}

/// The delay-simulation oracle: a FantomHarness random walk at in-spec
/// skew, reset at state 0's first stable column.
struct Walk {
  int applied = 0;
  int failures = 0;
  int fail_state = 0;
  int fail_outputs = 0;
  bool reset_ok = true;
};

Walk walk(const core::FantomMachine& machine) {
  sim::HarnessOptions options;
  options.max_skew = 2;
  sim::FantomHarness harness(machine, options);
  Walk w;
  const auto cols = machine.table.stable_columns(0);
  if (cols.empty() || !harness.reset(0, cols.front())) {
    w.reset_ok = false;
    return w;
  }
  const auto s = harness.random_walk(200, 11);
  w.applied = s.applied;
  w.failures = s.failures;
  w.fail_state = s.fail_state;
  w.fail_outputs = s.fail_outputs;
  return w;
}

/// Row-level checks behind pass_frac: ok status, verified equations and
/// cover-level ternary counts equal to the gate-level ones (the Verilog
/// round trip is byte-checked inside run_job, which fails the row).
bool row_passes(const driver::JobResult& r, std::string* why) {
  if (!r.ok()) {
    *why = std::string(driver::to_string(r.status)) + ": " + r.detail;
    return false;
  }
  if (!r.equations_verified) {
    *why = "equations not verified";
    return false;
  }
  if (r.ternary_a_violations != r.gate_ternary_a_violations ||
      r.ternary_b_violations != r.gate_ternary_b_violations) {
    *why = "cover-level ternary counts differ from gate-level";
    return false;
  }
  return true;
}

/// The api layer, measured in the traced run only: the benchmark thread
/// drives api::serve in-process over two pipes with one request
/// outstanding.  LRU tier on, no disk tier, the golden rows sealed as the
/// warm tier.  Every answer must equal the untimed run_job row of its table.
struct ServeLayer {
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  api::CacheStats cache;
  Fraction answers;  ///< answers equal to their table's run_job row
};

ServeLayer run_serve_layer(const Args& args, const seance::store::StoredReport& golden,
                           Tracer& tracer, int first_span_job,
                           std::vector<std::string>& failures) {
  const JobList list = make_serve_stream(args.seed);
  std::vector<std::string> requests;
  for (const auto& spec : list.jobs) requests.push_back(request_text(spec));

  // Warm tier: the golden rows keyed as this server's requests would key
  // them.  The golden recipe's 120 s watchdog never fired (no timeout
  // rows), so its rows are the rows of the watchdog-free check set.
  const api::ServeConfig config = serve_config();
  const std::vector<driver::JobSpec> golden_jobs = api::corpus_jobs(golden_recipe());
  std::unordered_map<std::string, const driver::JobSpec*> spec_of;
  for (const auto& spec : golden_jobs) spec_of[spec.name] = &spec;
  std::vector<std::pair<std::string, driver::JobResult>> warm;
  for (const auto& row : golden.report.jobs) {
    const auto it = spec_of.find(row.name);
    if (it == spec_of.end() || row.status == driver::JobStatus::kTimeout) continue;
    api::SynthesisRequest req;
    req.name = row.name;
    req.table = it->second->table;
    req.options = it->second->options;
    req.verify = config.verify;
    req.ternary = config.ternary;
    req.gate_ternary = config.gate_ternary;
    warm.emplace_back(api::cache_key(req), row);
  }

  std::vector<std::string> want(list.jobs.size());
  {
    const driver::BatchOptions checks = job_checks();
    search::TranspositionTable tt(core::SynthesisOptions{}.tt_mb << 20);
    for (std::size_t i = 0; i < list.jobs.size(); ++i) {
      want[i] = driver::to_csv_row(driver::BatchRunner::run_job(list.jobs[i], checks, nullptr, &tt));
    }
  }

  ServeLayer layer;
  std::vector<bool> reported(list.jobs.size(), false);
  ServeSession session(warm, config);
  for (std::size_t j = 0; j < list.stream.size(); ++j) {
    const auto i = static_cast<std::size_t>(list.stream[j]);
    std::string response;
    const double ms = timed_span(tracer, "api.request", first_span_job + static_cast<int>(j),
                                 [&] { response = session.exchange(requests[i]); });
    // "RES <disposition> <name>\nROW <csv>\n"; anything else is a failure.
    const bool hit = response.rfind("RES hit ", 0) == 0;
    const bool miss = response.rfind("RES miss ", 0) == 0;
    (hit ? layer.hit_ms : layer.miss_ms).push_back(ms);
    const std::size_t row_at = response.find("\nROW ");
    std::string row;
    if ((hit || miss) && row_at != std::string::npos) {
      row = response.substr(row_at + 5);
      if (!row.empty() && row.back() == '\n') row.pop_back();
    }
    ++layer.answers.den;
    if (row == want[i]) {
      ++layer.answers.num;
    } else if (!reported[i]) {
      reported[i] = true;
      failures.push_back("FAIL serve answer " + list.jobs[i].name + ": got " + response +
                         " want ROW " + want[i]);
    }
  }
  session.finish();
  layer.cache = session.cache_stats();
  return layer;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// Rows and machines of an untimed run_job pass over `jobs`, on a fresh
/// worker table; returns the pass's milliseconds.
double untimed_pass(const std::vector<driver::JobSpec>& jobs,
                    std::vector<driver::JobResult>& results,
                    std::vector<core::FantomMachine>& machines) {
  const driver::BatchOptions checks = job_checks();
  results.assign(jobs.size(), driver::JobResult{});
  machines.assign(jobs.size(), core::FantomMachine{});
  search::TranspositionTable tt(core::SynthesisOptions{}.tt_mb << 20);
  double ms = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto j0 = Clock::now();
    results[i] = driver::BatchRunner::run_job(jobs[i], checks, &machines[i], &tt);
    ms += ms_between(j0, Clock::now());
  }
  return ms;
}

int run(const Args& args) {
  const Workload w = args.workload;

  // ---- set-up, several times; the last one is kept -------------------
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  Prepared p;
  for (int i = 0; i < kSetups; ++i) {
    p = Prepared{};  // frees the previous set-up outside the clock
    const auto s0 = Clock::now();
    p = prepare(args);
    setup_s.push_back(ms_between(s0, Clock::now()) / 1e3);
    generate_ms.push_back(p.generate_ms);
  }
  const std::size_t n_jobs = p.list.jobs.size();

  // ---- timed phase -----------------------------------------------------
  std::vector<Pass> passes;
  double timed_ms = 0;
  while (static_cast<int>(passes.size()) < kMinPasses || timed_ms < args.seconds * 1e3) {
    passes.push_back(run_batch_pass(p));
    timed_ms += passes.back().wall_ms;
  }
  const double rss_mb = peak_rss_mb();  // before any machine is kept

  // ---- oracles, outside the timed window -------------------------------
  // One untimed pass keeps each job's row and machine: every timed answer
  // must equal its row, and the walk runs on its machine.
  std::vector<core::FantomMachine> machines;
  std::vector<driver::JobResult> results;
  const double untraced_pipeline_ms = untimed_pass(p.list.jobs, results, machines);
  std::vector<std::string> untimed_rows;
  for (const auto& r : results) untimed_rows.push_back(driver::to_csv_row(r));

  std::vector<std::string> failures;
  std::vector<bool> reported(n_jobs, false);
  Fraction pass_frac;
  for (const Pass& pass : passes) {
    for (std::size_t i = 0; i < n_jobs; ++i) {
      std::string why;
      bool ok = row_passes(results[i], &why);
      if (ok && pass.rows[i] != untimed_rows[i]) {
        ok = false;
        why = "timed row differs from the untimed pipeline row";
      }
      ++pass_frac.den;
      if (ok) {
        ++pass_frac.num;
      } else if (!reported[i]) {
        reported[i] = true;
        failures.push_back("FAIL pass_frac " + p.list.jobs[i].name + ": " + why);
      }
    }
  }

  // The walk probe: the golden corpus's Table-1 and 6x3 tables, which
  // hold the known walk failures, synthesized and walked in every run.
  const seance::store::StoredReport golden_report = load_golden(args.golden);
  const JobList probe = make_walk_probe();
  const std::vector<std::string> probe_golden = golden_rows_of(probe, golden_report);
  std::vector<core::FantomMachine> probe_machines;
  std::vector<driver::JobResult> probe_results;
  (void)untimed_pass(probe.jobs, probe_results, probe_machines);

  Fraction golden;
  const auto match_golden = [&](const std::string& got, const std::string& want,
                                const std::string& name) {
    ++golden.den;
    if (got == want) {
      ++golden.num;
    } else {
      failures.push_back("FAIL golden_match_frac " + name + ": got " + got + " want " + want);
    }
  };
  for (std::size_t i = 0; i < n_jobs; ++i) {
    if (!p.golden_rows[i].empty()) {
      match_golden(passes[0].rows[i], p.golden_rows[i], p.list.jobs[i].name);
    }
  }
  for (std::size_t i = 0; i < probe.jobs.size(); ++i) {
    match_golden(driver::to_csv_row(probe_results[i]), probe_golden[i],
                 probe.jobs[i].name + " (walk probe)");
  }

  // ---- traced pass -----------------------------------------------------
  Tracer tracer;
  LayerCounts counts;
  bool traced_rows_match = true;
  ServeLayer serve;
  if (args.trace) {
    search::TranspositionTable tt(core::SynthesisOptions{}.tt_mb << 20);
    std::vector<FrontMs> front(n_jobs);
    for (std::size_t i = 0; i < n_jobs; ++i) {
      const SpanGuard job(&tracer, "job.front", static_cast<int>(i));
      front[i] = traced_front(p.list.jobs[i], tt, tracer, static_cast<int>(i));
    }
    for (std::size_t i = 0; i < n_jobs; ++i) {
      const SpanGuard job(&tracer, "job", static_cast<int>(i));
      const driver::JobResult r = traced_job(p.list.jobs[i], tt, tracer, static_cast<int>(i),
                                             front[i], machines[i], counts);
      if (driver::to_csv_row(r) != untimed_rows[i]) {
        traced_rows_match = false;
        failures.push_back("FAIL traced row " + p.list.jobs[i].name + ": got " +
                           driver::to_csv_row(r) + " want " + untimed_rows[i]);
      }
    }
    serve = run_serve_layer(args, golden_report, tracer, static_cast<int>(n_jobs), failures);
  }
  // Span job ids: the workload's jobs, the serve requests, the walk probe.
  const int probe_span_job = static_cast<int>(n_jobs + serve.answers.den);

  Fraction walk_frac;
  const auto walk_all = [&](const JobList& list, const std::vector<driver::JobResult>& rs,
                            const std::vector<core::FantomMachine>& ms, int first_span_job) {
    for (std::size_t i = 0; i < list.jobs.size(); ++i) {
      if (!rs[i].ok()) continue;
      const SpanGuard span(args.trace ? &tracer : nullptr, "sim.walk",
                           first_span_job + static_cast<int>(i));
      const Walk wk = walk(ms[i]);
      walk_frac.den += static_cast<std::uint64_t>(wk.applied);
      walk_frac.num += static_cast<std::uint64_t>(wk.applied - wk.failures);
      counts.walk_steps += wk.applied;
      counts.walk_failures += wk.failures;
      if (!wk.reset_ok || wk.failures > 0) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), ": %d/%d applied steps failed (state %d, outputs %d)%s",
                      wk.failures, wk.applied, wk.fail_state, wk.fail_outputs,
                      wk.reset_ok ? "" : ", could not reset at state 0");
        failures.push_back("FAIL walk_pass_frac " + list.jobs[i].name + buf);
      }
    }
  };
  walk_all(p.list, results, machines, 0);
  walk_all(probe, probe_results, probe_machines, probe_span_job);

  // ---- report ------------------------------------------------------------
  std::vector<double> jobs_per_s, p50, tail, cpu_per_job;
  LatencySummary shape;
  for (const Pass& pass : passes) {
    const auto ok = static_cast<double>(std::count(pass.ok.begin(), pass.ok.end(), true));
    jobs_per_s.push_back(ok / (pass.wall_ms / 1e3));
    shape = summarize(pass.latency_ms);
    p50.push_back(shape.p50);
    tail.push_back(shape.tail);
    cpu_per_job.push_back(pass.cpu_ms / static_cast<double>(pass.latency_ms.size()));
  }
  double gates = 0, depth = 0, cubes = 0;
  for (const auto& r : results) {
    gates += r.gate_count;
    depth += r.depth.total_depth;
    cubes += r.cover_cubes;
  }

  std::printf("perfbench %s seed=%llu: %zu set-ups, %zu passes of %zu jobs, %.1f s timed\n",
              to_string(w), static_cast<unsigned long long>(args.seed), setup_s.size(),
              passes.size(), n_jobs, timed_ms / 1e3);
  std::printf("  pass wall ms:");
  for (const Pass& pass : passes) std::printf(" %.1f", pass.wall_ms);
  std::printf("\n  job_ms_tail is %s; pass_frac %s, golden_match_frac %s, walk_pass_frac %s\n",
              describe_tail(shape).c_str(), pass_frac.counts().c_str(),
              golden.counts().c_str(), walk_frac.counts().c_str());
  if (args.trace) {
    const LatencySummary h = summarize(serve.hit_ms);
    const LatencySummary m = summarize(serve.miss_ms);
    std::printf("  serve stream: answers %s; hits: p50 %.4f ms, %s %.4f ms; misses: p50 %.4f ms, "
                "%s %.4f ms\n",
                serve.answers.counts().c_str(), h.p50, describe_tail(h).c_str(), h.tail, m.p50,
                describe_tail(m).c_str(), m.tail);
  }
  for (const auto& f : failures) std::printf("%s\n", f.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"jobs_per_s", median(jobs_per_s), "1/s"},
        {"job_ms_p50", median(p50), "ms"},
        {"job_ms_tail", median(tail), "ms"},
        {"cpu_ms_per_job", median(cpu_per_job), "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"gates_total", gates, "count"},
        {"depth_total", depth, "count"},
        {"cover_cubes_total", cubes, "count"},
        {"pass_frac", pass_frac.value(), "frac"},
        {"golden_match_frac", golden.value(), "frac"},
        {"walk_pass_frac", walk_frac.value(), "frac"},
    };
  } else {
    const auto self = tracer.self_ms_by_name();
    const auto ms_of = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    metrics = {
        {"search.tt_clear_ms", ms_of("search.tt_clear"), "ms"},
        {"search.tt_hits", counts.tt_hits, "count"},
        {"search.tt_misses", counts.tt_misses, "count"},
        {"search.tt_evictions", counts.tt_evictions, "count"},
        {"core.synthesize_ms", ms_of("core.synthesize"), "ms"},
        {"core.equations_ms", counts.equations_ms, "ms"},
        {"logic.charts", counts.charts, "count"},
        {"logic.charts_truncated", counts.charts_truncated, "count"},
        {"logic.cover_cubes", counts.cover_cubes, "count"},
        {"logic.cover_lower_bound", counts.lower_bound, "count"},
        {"logic.cover_gap_total", counts.gap, "count"},
        {"core.verify_equations_ms", ms_of("core.verify_equations"), "ms"},
        {"sim.ternary_verify_ms", ms_of("sim.ternary_verify"), "ms"},
        {"sim.ternary_transitions", counts.ternary_transitions, "count"},
        {"netlist.export_ms", ms_of("netlist.export"), "ms"},
        {"netlist.parse_verilog_ms", ms_of("netlist.parse_verilog"), "ms"},
        {"netlist.gates", counts.gates, "count"},
        {"netlist.verilog_bytes", counts.verilog_bytes, "bytes"},
        {"sim.gate_ternary_verify_ms", ms_of("sim.gate_ternary_verify"), "ms"},
        {"minimize.reduce_ms", ms_of("minimize.reduce"), "ms"},
        {"minimize.states_removed", counts.states_removed, "count"},
        {"assign.assign_ustt_ms", ms_of("assign.assign_ustt"), "ms"},
        {"assign.state_vars", counts.state_vars, "count"},
        {"hazard.find_hazards_ms", ms_of("hazard.find_hazards"), "ms"},
        {"hazard.fl_total", counts.fl_total, "count"},
        {"api.hit_ms_p50", percentile(serve.hit_ms, 50), "ms"},
        {"api.miss_ms_p50", percentile(serve.miss_ms, 50), "ms"},
        {"api.cache_hits", static_cast<double>(serve.cache.hits), "count"},
        {"api.cache_warm_hits", static_cast<double>(serve.cache.warm_hits), "count"},
        {"api.cache_misses", static_cast<double>(serve.cache.misses), "count"},
        {"api.cache_bytes", static_cast<double>(serve.cache.bytes), "bytes"},
        {"bench_suite.generate_ms", median(generate_ms), "ms"},
        {"sim.walk_ms", ms_of("sim.walk"), "ms"},
        {"sim.walk_steps", counts.walk_steps, "count"},
        {"sim.walk_failures", counts.walk_failures, "count"},
        {"trace.overhead_frac", counts.pipeline_ms / untraced_pipeline_ms - 1.0, "frac"},
    };
    // Where the pipeline's time went, as shares of synthesize + checks.
    const std::pair<const char*, double> layers[] = {
        {"search.tt_clear", ms_of("search.tt_clear")},
        {"minimize.reduce", ms_of("minimize.reduce")},
        {"assign.assign_ustt", ms_of("assign.assign_ustt")},
        {"hazard.find_hazards", ms_of("hazard.find_hazards")},
        {"core.equations (residual)", counts.equations_ms},
        {"core.verify_equations", ms_of("core.verify_equations")},
        {"sim.ternary_verify", ms_of("sim.ternary_verify")},
        {"netlist.export", ms_of("netlist.export")},
        {"netlist.parse_verilog", ms_of("netlist.parse_verilog")},
        {"sim.gate_ternary_verify", ms_of("sim.gate_ternary_verify")},
    };
    std::printf("  traced pipeline %.1f ms vs untraced %.1f ms; layer shares:\n",
                counts.pipeline_ms, untraced_pipeline_ms);
    for (const auto& [name, ms] : layers) {
      std::printf("    %-28s %10.2f ms  %5.1f%%\n", name, ms, 100.0 * ms / counts.pipeline_ms);
    }
    const std::string path = args.out_dir + "/spans-" + to_string(w) + "-seed" +
                             std::to_string(args.seed) + ".tsv";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << tracer.to_tsv();
    if (!out) throw std::runtime_error("cannot write " + path);
    std::printf("  spans: %zu written to %s\n", tracer.spans().size(), path.c_str());
  }

  const bool correct = pass_frac.num == pass_frac.den && golden.num == golden.den &&
                       traced_rows_match && serve.answers.num == serve.answers.den;
  const std::uint64_t attempted = pass_frac.den + serve.answers.den;
  const std::uint64_t failed = (pass_frac.den - pass_frac.num) + (golden.den - golden.num) +
                               (traced_rows_match ? 0 : 1) +
                               (serve.answers.den - serve.answers.num);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dead server shows as a write error
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  pin_to_one_cpu();
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
