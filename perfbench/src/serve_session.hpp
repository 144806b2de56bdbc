// An in-process api::serve loop on its own thread, driven over two OS
// pipes by the benchmark thread with one request outstanding.

#pragma once

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/cache.hpp"
#include "api/serve.hpp"

namespace perfbench {

class ServeSession {
 public:
  /// Builds the cache (no disk tier, default LRU budget), inserts and
  /// seals `warm`, starts the server and waits for its PONG.  Throws
  /// std::runtime_error when a pipe cannot be made.
  ServeSession(const std::vector<std::pair<std::string, seance::driver::JobResult>>& warm,
               const seance::api::ServeConfig& config);
  /// Calls finish() if it has not run.
  ~ServeSession();
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Writes `request` and reads the response through its END line.
  [[nodiscard]] std::string exchange(const std::string& request);

  /// Sends QUIT, waits for BYE and joins the server thread.  Rethrows an
  /// exception the server thread ended with.
  void finish();

  /// Cache counters; call after finish() (the server thread owns them).
  [[nodiscard]] const seance::api::CacheStats& cache_stats() const { return cache_.stats(); }

 private:
  void write_all(const std::string& bytes);
  [[nodiscard]] std::string read_line();

  seance::api::ResultCache cache_;
  int to_server_[2] = {-1, -1};
  int from_server_[2] = {-1, -1};
  std::string pending_;  ///< bytes read from the server past the last line
  std::exception_ptr server_error_;
  bool finished_ = false;
  std::thread server_;  ///< last: it uses every member above
};

}  // namespace perfbench
