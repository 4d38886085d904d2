#ifndef PEERCACHE_COMMON_FAULT_H_
#define PEERCACHE_COMMON_FAULT_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"

namespace peercache::fault {

/// Fault-injection knobs for the routing layer. All probabilities are per
/// *decision* (one forwarding attempt, one node per lookup, one dead table
/// entry per lookup), evaluated deterministically from `seed` and the
/// decision's identity — never from an RNG stream — so a faulted run is a
/// pure function of (seed, workload) at any thread count.
struct FaultConfig {
  /// Probability that one forwarding attempt (a message from the current
  /// node to its chosen next hop) is lost. The sender detects the timeout
  /// and retries against its next-best entry.
  double drop_prob = 0.0;
  /// Probability that a given node is fail-stopped for the duration of one
  /// lookup (a mid-lookup departure: the node neither receives nor
  /// forwards). Decided per (lookup key, node), so a lookup routed around
  /// the failure sees the same node down on every table that lists it.
  double fail_prob = 0.0;
  /// Probability that a *dead* table entry still looks alive to the node
  /// holding it (a stale-entry window: the holder's liveness knowledge
  /// predates the departure). The holder forwards into the void, times
  /// out, retries, and reports the entry for eviction.
  double stale_prob = 0.0;
  /// Seed of the deterministic fault process. Independent of the
  /// experiment seed: the same workload can be replayed under different
  /// fault draws and vice versa.
  uint64_t seed = 0;
  /// Failed forwarding attempts tolerated per node visit before the lookup
  /// is abandoned. Each failed attempt also consumes one unit of the
  /// route's global hop budget (max_route_hops).
  int max_retries = 8;
  /// When false, the first failed forwarding attempt aborts the lookup —
  /// the baseline a resilient router is measured against.
  bool retry = true;

  bool enabled() const {
    return drop_prob > 0.0 || fail_prob > 0.0 || stale_prob > 0.0;
  }

  /// OK when every probability is finite and within [0, 1] and
  /// max_retries >= 0; otherwise InvalidArgument naming the field.
  Status Validate() const;
};

/// True for the valued fault flags of the command-line drivers:
/// --fault-drop/-fail/-stale P, --fault-seed S, --fault-retries N.
bool IsFaultFlag(std::string_view flag);

/// Applies one valued fault flag to `config`. The whole value must parse as
/// the flag's number type (no trailing text, no sign on a seed) and leave
/// `config` valid; otherwise `config` is unchanged and the InvalidArgument
/// message names the flag and the rejected value.
Status ApplyFaultFlag(std::string_view flag, const char* value,
                      FaultConfig& config);

/// Deterministic fault oracle handed to LookupInto. Every predicate is a
/// stateless hash of (seed, decision identity): concurrent lookups on any
/// thread count, or the same lookup replayed, see identical faults. An
/// `attempt` counter (maintained per lookup by the router) decorrelates
/// retransmissions to the same next hop, so a dropped message is not
/// deterministically dropped forever.
class FaultPlan {
 public:
  /// Inert plan: no faults, every predicate false.
  FaultPlan() = default;
  explicit FaultPlan(const FaultConfig& config) : config_(config) {}

  const FaultConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled(); }

  /// Does the forwarding attempt `from -> to` for `key` get dropped?
  /// `attempt` is the lookup's running attempt counter.
  bool DropForward(uint64_t key, uint64_t from, uint64_t to,
                   int attempt) const;

  /// Is `node` fail-stopped for the whole lookup of `key`?
  bool FailStopped(uint64_t key, uint64_t node) const;

  /// Does `holder` still believe its dead entry `entry` is alive during
  /// the lookup of `key`? Only meaningful for entries that are actually
  /// dead; the router never consults it for live ones.
  bool StaleBelievedAlive(uint64_t key, uint64_t holder,
                          uint64_t entry) const;

 private:
  FaultConfig config_;
};

}  // namespace peercache::fault

#endif  // PEERCACHE_COMMON_FAULT_H_
