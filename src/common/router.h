#ifndef PEERCACHE_COMMON_ROUTER_H_
#define PEERCACHE_COMMON_ROUTER_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/fault.h"
#include "common/latency.h"
#include "common/route_result.h"
#include "common/status.h"
#include "common/trace.h"

namespace peercache::overlay {

/// One suspended lookup at node-visit granularity, shared by every backend
/// and every driver: the direct call, the batched engine and the actor
/// runtime. Plain data only — it is also the wire cursor a LOOKUP_STEP
/// message carries (src/net/wire.h), so an in-flight route serializes
/// between two visits and resumes at the next node's actor.
struct RouteCursor {
  uint64_t current = 0;  ///< node the next visit happens at
  uint64_t key = 0;
  uint64_t truth = 0;        ///< ground-truth responsible node
  uint32_t hops_taken = 0;   ///< successful forwards (delivered path length)
  uint32_t spent = 0;    ///< resilient hop budget: successful + failed attempts
  uint32_t attempt = 0;  ///< resilient retransmission-decorrelation counter
  uint8_t flags = kDone;

  /// Routed under an enabled fault::FaultPlan (set once, at Begin).
  static constexpr uint8_t kResilient = 1u << 0;
  /// Pastry's R3 latch: permanent once a numeric hop was taken.
  static constexpr uint8_t kNumericMode = 1u << 1;
  /// The route finished. Never on the wire: a STEP travels only while the
  /// route is live.
  static constexpr uint8_t kDone = 1u << 2;

  bool done() const { return (flags & kDone) != 0; }
  bool resilient() const { return (flags & kResilient) != 0; }
  bool numeric_mode() const { return (flags & kNumericMode) != 0; }

  friend bool operator==(const RouteCursor&, const RouteCursor&) = default;
};

/// One routing decision, returned by a backend's geometry function
/// `Choose(node, cursor, filter)`.
struct Choice {
  enum class Action : uint8_t {
    kForward,      ///< send to `next`
    kDeliverHere,  ///< this node answers (Pastry exact hit or R1 closest)
    kNoCandidate,  ///< no usable entry makes progress: this node answers,
                   ///< unless a retransmission rescan finds one
  };
  Action action = Action::kNoCandidate;
  uint64_t next = 0;
  HopEntryKind kind = HopEntryKind::kFinger;
  uint64_t remaining = 0;  ///< trace metric after the hop (HopRecord)
  bool final_hop = false;  ///< Pastry R1: `next` answers; the route ends
  bool enters_numeric = false;  ///< the hop latches kNumericMode
  bool dead = false;  ///< `next` is dead, believed alive in a stale window
};

/// Fault-free candidate filter: nothing is excluded and an entry is
/// believed alive exactly when it is, so every call compiles away.
struct LiveFilter {
  static constexpr bool Dead(uint64_t) { return false; }
  static constexpr bool Excluded(uint64_t) { return false; }
  static constexpr bool BelievedAlive(uint64_t, bool alive) { return alive; }
};

/// Resilient candidate filter for one node visit. Entries found dead this
/// visit (stale or fail-stopped) are never retried; entries whose message
/// was dropped become eligible again only in the retransmission rescan. A
/// dead entry inside its stale window still looks alive to its holder.
struct FaultFilter {
  const fault::FaultPlan& faults;
  uint64_t key;
  uint64_t holder;
  const std::vector<uint64_t>& dead;
  const std::vector<uint64_t>& dropped;
  bool retransmit = false;

  static bool Contains(const std::vector<uint64_t>& set, uint64_t w) {
    return std::find(set.begin(), set.end(), w) != set.end();
  }
  /// Excluded for the whole visit. Pastry's R1 asks only this: its hop is
  /// final, so a dropped delivery is retransmitted to the same member.
  bool Dead(uint64_t w) const { return Contains(dead, w); }
  bool Excluded(uint64_t w) const {
    return Dead(w) || (!retransmit && Contains(dropped, w));
  }
  bool BelievedAlive(uint64_t w, bool alive) const {
    return alive || faults.StaleBelievedAlive(key, holder, w);
  }
};

/// The one route state machine. `Net` supplies the geometry —
/// `Choose(node, cursor, filter)`, which must ask `filter.BelievedAlive`
/// only of an entry that would become the new best (docs/ALGORITHMS.md,
/// "The hop path") — plus IsAlive, ResponsibleNode, GetNode and
/// params().max_route_hops. The router owns everything else: the begin
/// step, the fault gates and retry loop, both hop budgets, and the
/// accounting of aux hops, path, trace and latency.
///
/// A null or disabled fault plan routes fault-free; an enabled one routes
/// every forwarding attempt through the plan's drop / fail-stop / stale
/// gates and retries a failed attempt against the next-best entry, bounded
/// per visit by max_retries and globally by the hop budget. An enabled
/// latency model charges each delivered forward its hop span and each
/// failed attempt the timeout; a null or disabled one leaves latency 0.
template <typename Net>
class Router {
 public:
  using Node = typename Net::NodeType;

  explicit Router(const Net& net, RouteTrace* trace = nullptr,
                  const fault::FaultPlan* faults = nullptr,
                  const latency::LatencyModel* latency = nullptr)
      : net_(net),
        trace_(trace),
        faults_(faults != nullptr && faults->enabled() ? faults : nullptr),
        latency_(latency != nullptr && latency->enabled() ? latency
                                                          : nullptr) {}

  /// Starts a route at `origin`: clears `out`, resolves ground truth and
  /// seeds the trace header. Fails (cursor stays done) with Unavailable for
  /// a dead origin and FailedPrecondition for an empty overlay.
  Status Begin(uint64_t origin, uint64_t key, RouteCursor& cursor,
               RouteResult& out) const {
    cursor = RouteCursor{};
    out.Clear();
    if (!net_.IsAlive(origin)) return Status::Unavailable("origin not alive");
    auto truth = net_.ResponsibleNode(key);
    if (!truth.ok()) return truth.status();
    cursor.current = origin;
    cursor.key = key;
    cursor.truth = truth.value();
    cursor.flags = faults_ != nullptr ? RouteCursor::kResilient : 0;
    if (trace_ != nullptr) {
      trace_->origin = origin;
      trace_->key = key;
    }
    return Status::Ok();
  }

  /// Routes to completion: Begin, then Visit until done.
  Status Route(uint64_t origin, uint64_t key, RouteResult& out) const {
    RouteCursor cursor;
    if (Status s = Begin(origin, key, cursor, out); !s.ok()) return s;
    while (!cursor.done()) Visit(cursor, out);
    return Status::Ok();
  }

  /// One node visit at cursor.current. No-op once the cursor is done.
  void Visit(RouteCursor& cursor, RouteResult& out) const {
    if (cursor.done()) return;
    const Node* node = net_.GetNode(cursor.current);
    assert(node != nullptr);
    Visit(*node, cursor, out);
  }

  /// One node visit, given the record of cursor.current (the batched
  /// engine already holds it).
  void Visit(const Node& node, RouteCursor& cursor, RouteResult& out) const {
    if (cursor.done()) return;
    if (cursor.resilient()) {
      VisitResilient(node, cursor, out);
      return;
    }
    const Choice choice = net_.Choose(node, cursor, LiveFilter{});
    if (choice.action != Choice::Action::kForward) {
      Finish(cursor, out, cursor.current, cursor.hops_taken, true);
      return;
    }
    Forward(cursor, out, choice, /*retried=*/false);
    // Fault-free hop budget: fails right after the overrunning hop, at the
    // node it reached, and is not tagged budget_exhausted.
    const int budget = net_.params().max_route_hops;
    if (!cursor.done() && static_cast<int>(cursor.hops_taken) > budget) {
      Finish(cursor, out, cursor.current, static_cast<uint32_t>(budget),
             false);
    }
  }

 private:
  /// The resilient visit: fault gates and the per-visit retry loop. Kept
  /// out of line so the fault-free step above stays small.
  [[gnu::noinline]] void VisitResilient(const Node& node, RouteCursor& cursor,
                                        RouteResult& out) const {
    const int budget = net_.params().max_route_hops;
    // Resilient hop budget: a previous visit's attempts may have spent it;
    // it fails here, at the next visit, and is tagged budget_exhausted.
    if (static_cast<int>(cursor.spent) > budget) {
      out.budget_exhausted = true;
      Finish(cursor, out, cursor.current, static_cast<uint32_t>(budget),
             false);
      return;
    }
    assert(faults_ != nullptr);
    const fault::FaultPlan& faults = *faults_;
    const uint64_t current = cursor.current;
    // Visit-local exclusion sets: nothing but the cursor crosses a message
    // boundary, and nothing is shared between concurrent visits.
    std::vector<uint64_t> dead;
    std::vector<uint64_t> dropped;
    int retries_here = 0;
    while (true) {
      FaultFilter filter{faults, cursor.key, current, dead, dropped};
      Choice choice = net_.Choose(node, cursor, filter);
      if (choice.action == Choice::Action::kNoCandidate && !dropped.empty()) {
        filter.retransmit = true;
        choice = net_.Choose(node, cursor, filter);
      }
      if (choice.action != Choice::Action::kForward) {
        Finish(cursor, out, current, cursor.hops_taken, true);
        return;
      }
      // Fault gates, in failure-cause order: a dead entry can never
      // receive, a fail-stopped target is down for this whole lookup, and
      // an otherwise healthy forward can still lose its message.
      if (choice.dead) {
        ++out.stale_forwards;
        out.dead_evictions.emplace_back(current, choice.next);
        dead.push_back(choice.next);
      } else if (faults.FailStopped(cursor.key, choice.next)) {
        ++out.failstop_skips;
        dead.push_back(choice.next);
      } else if (faults.DropForward(cursor.key, current, choice.next,
                                    static_cast<int>(cursor.attempt++))) {
        ++out.dropped_forwards;
        dropped.push_back(choice.next);
      } else {
        Forward(cursor, out, choice, retries_here > 0);
        return;
      }

      // Failed attempt: charge both budgets, honor the retry policy.
      ++out.retries;
      ++retries_here;
      ++cursor.spent;
      Record(cursor, choice, /*dropped=*/true, /*retried=*/false,
             latency_ != nullptr ? latency_->FailedAttemptMs() : 0.0, out);
      if (!faults.config().retry) {
        Finish(cursor, out, current, cursor.hops_taken, false);
        return;
      }
      if (retries_here > faults.config().max_retries ||
          static_cast<int>(cursor.spent) > budget) {
        out.budget_exhausted = true;
        Finish(cursor, out, current, cursor.hops_taken, false);
        return;
      }
    }
  }

  /// Appends one trace record and charges its latency.
  void Record(const RouteCursor& cursor, const Choice& choice, bool dropped,
              bool retried, double ms, RouteResult& out) const {
    out.latency_ms += ms;
    if (trace_ != nullptr) {
      trace_->path.push_back({cursor.current, choice.next, choice.kind,
                              choice.remaining, dropped, retried, ms});
    }
  }

  /// A delivered forward: accounting, then the cursor moves to `next` (or
  /// the route ends there, for a final hop).
  void Forward(RouteCursor& cursor, RouteResult& out, const Choice& choice,
               bool retried) const {
    if (IsAuxiliaryHop(choice.kind)) ++out.aux_hops;
    const uint32_t hop_index =
        cursor.resilient() ? cursor.spent : cursor.hops_taken;
    Record(cursor, choice, /*dropped=*/false, retried,
           latency_ != nullptr
               ? latency_->HopLatencyMs(cursor.key, cursor.current,
                                        choice.next,
                                        static_cast<int>(hop_index))
               : 0.0,
           out);
    out.path.push_back(cursor.current);
    ++cursor.hops_taken;
    if (cursor.resilient()) ++cursor.spent;
    if (choice.final_hop) {
      Finish(cursor, out, choice.next, cursor.hops_taken, true);
      return;
    }
    if (choice.enters_numeric) cursor.flags |= RouteCursor::kNumericMode;
    cursor.current = choice.next;
  }

  void Finish(RouteCursor& cursor, RouteResult& out, uint64_t destination,
              uint32_t hops, bool delivered) const {
    out.destination = destination;
    out.hops = static_cast<int>(hops);
    out.success = delivered && destination == cursor.truth;
    if (trace_ != nullptr) {
      trace_->destination = out.destination;
      trace_->success = out.success;
      trace_->hops = out.hops;
      trace_->latency_ms = out.latency_ms;
    }
    cursor.flags |= RouteCursor::kDone;
  }

  const Net& net_;
  RouteTrace* trace_;
  const fault::FaultPlan* faults_;        // null unless enabled
  const latency::LatencyModel* latency_;  // null unless enabled
};

/// By-value convenience form of a backend's LookupInto.
template <typename Net>
Result<RouteResult> Lookup(const Net& net, uint64_t origin, uint64_t key,
                           RouteTrace* trace = nullptr,
                           const fault::FaultPlan* faults = nullptr,
                           const latency::LatencyModel* latency = nullptr) {
  RouteResult result;
  if (Status s = net.LookupInto(origin, key, result, trace, faults, latency);
      !s.ok()) {
    return s;
  }
  return result;
}

}  // namespace peercache::overlay

#endif  // PEERCACHE_COMMON_ROUTER_H_
