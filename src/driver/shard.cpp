#include "driver/shard.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace seance::driver {

ShardPlan ShardPlan::round_robin(int job_count, int num_shards) {
  if (num_shards < 1) {
    throw std::invalid_argument("ShardPlan: num_shards must be >= 1");
  }
  if (job_count < 0) {
    throw std::invalid_argument("ShardPlan: job_count must be >= 0");
  }
  ShardPlan plan;
  plan.num_shards = num_shards;
  plan.slices.resize(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < job_count; ++i) {
    plan.slices[static_cast<std::size_t>(i % num_shards)].push_back(i);
  }
  return plan;
}

std::string ShardPlan::slice_tag(int index, int total) {
  return std::to_string(index) + "/" + std::to_string(total);
}

std::string ShardPlan::slice_file(int index, int total) {
  return "shard-" + std::to_string(index) + "-of-" + std::to_string(total) +
         ".csv";
}

bool ShardPlan::parse_slice_tag(const std::string& tag, int* index,
                                int* total) {
  int u = -1;
  int t = -1;
  char trailing = '\0';
  if (std::sscanf(tag.c_str(), "%d/%d%c", &u, &t, &trailing) != 2) {
    return false;
  }
  // sscanf tolerates leading whitespace and "+" signs; the canonical tag
  // has neither, and round-tripping through slice_tag catches both.
  if (t < 1 || u < 0 || u >= t) return false;
  if (slice_tag(u, t) != tag) return false;
  if (index != nullptr) *index = u;
  if (total != nullptr) *total = t;
  return true;
}

int ShardPlan::lease_units(int job_count, int requested, int fallback) {
  int units = requested > 0 ? requested : fallback;
  if (units < 1) units = 1;
  const int cap = std::max(1, job_count);
  return std::min(units, cap);
}

double estimate_cost(const JobSpec& spec) {
  const double states = spec.table.num_states();
  const double columns = static_cast<double>(std::size_t{1}
                                             << spec.table.num_inputs());
  return states * columns;
}

}  // namespace seance::driver
