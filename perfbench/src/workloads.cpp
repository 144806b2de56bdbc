#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "api/api.hpp"
#include "bench_suite/benchmarks.hpp"
#include "flowtable/kiss.hpp"

namespace perfbench {

namespace api = seance::api;
namespace driver = seance::driver;

namespace {

// Salts keep the seeded streams of one run independent of each other.
constexpr std::uint64_t kOrderSalt = 0x6f72646572;   // "order"
constexpr std::uint64_t kServeSalt = 0x7365727665;   // "serve"

/// Fisher-Yates over raw mt19937_64 words (std::shuffle's word use is
/// implementation-defined), seeded by driver::derive_seed(seed, salt).
void seeded_shuffle(std::vector<int>& v, std::uint64_t seed, std::uint64_t salt) {
  std::mt19937_64 rng(driver::derive_seed(seed, salt));
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng() % i)]);
  }
}

/// The recipe's jobs in the given order; the first `pinned_prefix` jobs of
/// the recipe's own order are pinned.
JobList make_list(const api::CorpusRequest& recipe, std::size_t pinned_prefix,
                  const std::vector<int>& order) {
  std::vector<driver::JobSpec> jobs = api::corpus_jobs(recipe);
  JobList list;
  for (const int i : order) {
    list.pinned.push_back(static_cast<std::size_t>(i) < pinned_prefix);
    list.jobs.push_back(std::move(jobs[static_cast<std::size_t>(i)]));
  }
  return list;
}

std::vector<int> identity_order(std::size_t n) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

}  // namespace

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kHarderBatch: return "harder-batch";
    case Workload::kHardestBatch: return "hardest-batch";
  }
  return "?";
}

std::optional<Workload> workload_from_string(std::string_view s) {
  for (const Workload w : {Workload::kHarderBatch, Workload::kHardestBatch}) {
    if (s == to_string(w)) return w;
  }
  return std::nullopt;
}

JobList make_jobs(Workload w, std::uint64_t seed) {
  api::CorpusRequest recipe;
  recipe.suite = false;
  recipe.random_count = 0;
  recipe.gen.seed = kGoldenBaseSeed;
  int count = 0;
  switch (w) {
    case Workload::kHarderBatch:
      recipe.harder_count = count = kHarderJobs;
      break;
    case Workload::kHardestBatch:
      recipe.hardest_count = count = kHardestJobs;
      break;
  }
  std::vector<int> order = identity_order(static_cast<std::size_t>(count));
  seeded_shuffle(order, seed, kOrderSalt);
  return make_list(recipe, static_cast<std::size_t>(count), order);
}

JobList make_walk_probe() {
  api::CorpusRequest recipe;
  recipe.random_count = kProbeRandom;
  recipe.gen.seed = kGoldenBaseSeed;
  const std::size_t n = seance::bench_suite::table1_suite().size() + kProbeRandom;
  return make_list(recipe, n, identity_order(n));
}

JobList make_serve_stream(std::uint64_t seed) {
  api::CorpusRequest recipe;
  recipe.random_count = 0;
  recipe.hard_count = kServeTables;
  // Never the golden stream, so a generated table can only reach the warm
  // tier by colliding with a pinned one.
  recipe.gen.seed = driver::derive_seed(seed, kServeSalt);
  const std::size_t suite = seance::bench_suite::table1_suite().size();
  JobList list = make_list(recipe, suite, identity_order(suite + kServeTables));
  for (int r = 0; r < kServeRepeats; ++r) {
    for (int i = 0; i < static_cast<int>(list.jobs.size()); ++i) list.stream.push_back(i);
  }
  seeded_shuffle(list.stream, seed, kOrderSalt);
  return list;
}

std::string job_list_bytes(const JobList& list) {
  std::string out;
  for (std::size_t i = 0; i < list.jobs.size(); ++i) {
    const driver::JobSpec& spec = list.jobs[i];
    out += "JOB " + spec.name + (list.pinned[i] ? " pinned\n" : "\n");
    out += seance::core::options_to_string(spec.options) + "\n";
    out += seance::flowtable::to_kiss2(spec.table);
  }
  out += "STREAM";
  for (const int i : list.stream) {
    out += ' ';
    out += std::to_string(i);
  }
  out += "\n";
  return out;
}

std::string request_text(const driver::JobSpec& spec) {
  const std::string kiss = seance::flowtable::to_kiss2(spec.table);
  const auto lines = std::count(kiss.begin(), kiss.end(), '\n');
  return "REQ " + spec.name + "\nOPT " +
         seance::core::options_to_string(spec.options) + "\nTABLE " +
         std::to_string(lines) + "\n" + kiss + "END\n";
}

}  // namespace perfbench
