// Lease files in a directory: the one lease backend FleetRunner drives.
//
// All fleet state is plain files under one directory, one name per
// artifact, so independent runner processes — on one box or many, via
// any shared filesystem — coordinate a corpus run through it.  A local
// `--shards K` run uses the same files in its private `--shard-dir`,
// where it is the only runner:
//
//   fleet-config          corpus identity + unit count, written once by
//                         the first runner (atomic hard-link publish) and
//                         byte-verified by every joiner — two runners
//                         with different recipes or granularity fail
//                         loudly instead of corrupting each other
//   lease-u-of-U          slice u's lease: holder id, ownership nonce,
//                         attempt count.  Freshness is the file's mtime,
//                         refreshed by heartbeat()
//   done-u-of-U           completion marker (the slice store passed
//                         slice_file_complete on the holder)
//   shard-u-of-U.csv      the slice store itself (written by workers;
//                         named by driver::ShardPlan::slice_file)
//
// Protocol:
//   * claim free      — publish the lease file via hard-link (atomic
//                       create-exclusive with complete content); losers
//                       see EEXIST
//   * steal expired   — write a temp lease, rename over (atomic replace),
//                       read back: whoever's nonce survived owns it.  The
//                       attempt count carries over +1; once it reaches
//                       max_attempts the slice is kDead — a
//                       deterministically crashing job cannot re-lease
//                       forever, and with max_attempts 1 a failed slice
//                       is never re-run
//   * heartbeat       — verify the nonce is still ours, then bump mtime;
//                       a lost nonce means the lease was stolen and the
//                       caller must stop its worker
//   * abandon         — backdate the mtime far past the TTL so the next
//                       acquire (any runner, including us) can steal
//                       immediately instead of waiting out the clock
//
// Freshness compares the lease mtime against this machine's filesystem
// clock; cross-machine deployments need the usual NTP discipline, and
// TTLs should dwarf expected skew.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "fleet/fleet.hpp"

namespace seance::fleet {

enum class LeaseState : std::uint8_t {
  kFree,     ///< unclaimed
  kHeld,     ///< leased and heartbeat-fresh
  kExpired,  ///< leased but the holder stopped heartbeating — stealable
  kDone,     ///< completed; the slice store is authoritative
  kDead,     ///< gave up: no (further) attempts allowed
};

struct AcquireResult {
  bool ok = false;
  /// The lease was taken over from an expired holder (a steal or a
  /// dead-runner re-lease) rather than claimed free.
  bool stolen = false;
  std::string detail;  ///< why not, or whom it was re-leased from
};

/// Who may run a slice right now.  One instance per runner process; all
/// calls are made from the runner's driving thread.
class DirBackend {
 public:
  struct Options {
    std::string runner_id = "runner-0";
    /// A lease not heartbeaten for this long is expired (stealable).
    double lease_ttl_ms = 10000;
    /// Total execution attempts a slice gets across the whole fleet
    /// before it is declared dead (1 for a local `--shards` run).
    int max_attempts = 3;
  };

  /// Creates `dir` if needed; throws std::runtime_error when it cannot.
  DirBackend(std::string dir, Options options);

  /// Publishes (first runner) or byte-verifies (joiners) the fleet
  /// config binding this directory to one corpus identity and one
  /// lease-unit count.  Throws std::runtime_error on a mismatch — a
  /// runner with different recipe flags or `--lease-units` must not
  /// join, its workers would compute a different plan.
  void bind(const store::CorpusIdentity& identity, int units);

  /// Removes the directory's lease state (fleet-config, lease and done
  /// files) and keeps the slice stores, so the next bind starts a fresh
  /// fleet.  Only for a private directory: a shared fleet's other
  /// runners would lose their leases.
  void reset();

  /// Try to take the slice: claims a free lease, or steals an expired
  /// one.  Never blocks.
  [[nodiscard]] AcquireResult acquire(const Slice& slice);
  /// Refresh a held lease; false means the lease was lost (stolen after
  /// expiry) and the caller must stop working on the slice.
  [[nodiscard]] bool heartbeat(const Slice& slice);
  /// Mark the slice done (its store file is complete).  False when the
  /// done marker could not be written.
  [[nodiscard]] bool complete(const Slice& slice);
  /// Give the slice up after a failed run: it is immediately stealable,
  /// or dead once its attempt budget is spent.
  void abandon(const Slice& slice, const std::string& why);
  [[nodiscard]] LeaseState status(const Slice& slice);

 private:
  struct LeaseFile {
    std::string runner;
    std::string nonce;
    int attempts = 0;
  };

  [[nodiscard]] std::string lease_path(const Slice& slice) const;
  [[nodiscard]] std::string done_path(const Slice& slice) const;
  /// False when no lease file exists; an existing-but-garbled file reads
  /// as attempts 0 from runner "?" so it stays stealable once stale.
  [[nodiscard]] bool read_lease(const std::string& path, LeaseFile* out) const;
  [[nodiscard]] bool lease_fresh(const std::string& path) const;
  [[nodiscard]] std::string new_nonce();

  std::string dir_;
  Options options_;
  std::uint64_t nonce_counter_ = 0;
  /// Nonces of leases this instance acquired, by slice tag — ownership
  /// verification for heartbeat/abandon.
  std::unordered_map<std::string, std::string> held_;
};

}  // namespace seance::fleet
