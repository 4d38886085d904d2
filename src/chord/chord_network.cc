#include "chord/chord_network.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/bits.h"
#include "common/overlay.h"

namespace peercache::chord {

static_assert(overlay::Overlay<ChordNetwork>,
              "ChordNetwork must satisfy the Overlay concept");

ChordNetwork::ChordNetwork(const ChordParams& params)
    : params_(params), space_(params.bits) {}

Status ChordNetwork::AddNode(uint64_t id) {
  if (!space_.Contains(id)) return Status::InvalidArgument("id out of range");
  if (store_.IsAlive(id)) {
    return Status::InvalidArgument("live id already used");
  }
  auto [node, inserted] = store_.Emplace(id, params_.frequency_capacity, params_.freq_sketch);
  node->id = id;
  node->alive = true;
  store_.tables().Clear(node->auxiliaries);
  store_.MarkAlive(id);
  return StabilizeNode(id);
}

Status ChordNetwork::BulkAdd(const std::vector<uint64_t>& ids) {
  for (uint64_t id : ids) {
    if (!space_.Contains(id)) {
      return Status::InvalidArgument("id out of range");
    }
    if (store_.IsAlive(id)) {
      return Status::InvalidArgument("live id already used");
    }
  }
  store_.Reserve(store_.size() + ids.size());
  for (uint64_t id : ids) {
    auto [node, inserted] = store_.Emplace(id, params_.frequency_capacity, params_.freq_sketch);
    node->id = id;
    node->alive = true;
    store_.tables().Clear(node->auxiliaries);
  }
  store_.BulkMarkAlive(ids);
  return Status::Ok();
}

Status ChordNetwork::RemoveNode(uint64_t id, bool forget_state) {
  ChordNode* node = store_.Get(id);
  if (node == nullptr || !node->alive) {
    return Status::NotFound("node not alive");
  }
  node->alive = false;
  store_.MarkDead(id);
  if (forget_state) {
    node->frequencies.Clear();
    store_.tables().Release(node->fingers);
    store_.tables().Release(node->successors);
    store_.tables().Release(node->auxiliaries);
  }
  return Status::Ok();
}

Status ChordNetwork::RejoinNode(uint64_t id) {
  ChordNode* node = store_.Get(id);
  if (node == nullptr) return Status::NotFound("unknown node");
  if (node->alive) return Status::FailedPrecondition("already alive");
  node->alive = true;
  // Auxiliaries are lost on crash; rebuilt at the next selection.
  store_.tables().Clear(node->auxiliaries);
  store_.MarkAlive(id);
  return StabilizeNode(id);
}

std::vector<uint64_t> ChordNetwork::LiveNodeIds() const {
  return store_.live_ids();
}

Result<uint64_t> ChordNetwork::ResponsibleNode(uint64_t key) const {
  const std::vector<uint64_t>& live = store_.live_ids();
  if (live.empty()) return Status::FailedPrecondition("empty overlay");
  // Predecessor assignment: the last live node at-or-before the key.
  const size_t pos = store_.UpperBoundLive(key);
  if (pos == 0) return live.back();  // wrap
  return live[pos - 1];
}

Status ChordNetwork::BeginResponsible(uint64_t key,
                                      ResponsibleCursor& cursor) const {
  cursor = ResponsibleCursor{};
  const std::vector<uint64_t>& live = store_.live_ids();
  if (live.empty()) return Status::FailedPrecondition("empty overlay");
  cursor.key = key;
  cursor.lo = 0;
  cursor.hi = live.size();
  cursor.done = false;
  return Status::Ok();
}

void ChordNetwork::StepResponsible(ResponsibleCursor& cursor) const {
  if (cursor.done) return;
  const std::vector<uint64_t>& live = store_.live_ids();
  // One probe of the upper-bound bisection: first index with id > key.
  const size_t mid = cursor.lo + (cursor.hi - cursor.lo) / 2;
  if (live[mid] <= cursor.key) {
    cursor.lo = mid + 1;
  } else {
    cursor.hi = mid;
  }
  if (cursor.lo < cursor.hi) return;
  // The bounds met at the unique upper bound: the predecessor owns the key
  // (wrapping), exactly ResponsibleNode's answer.
  cursor.result = cursor.lo == 0 ? live.back() : live[cursor.lo - 1];
  cursor.done = true;
}

Status ChordNetwork::StabilizeNode(uint64_t id) {
  ChordNode* node_ptr = store_.Get(id);
  if (node_ptr == nullptr || !node_ptr->alive) {
    return Status::NotFound("node not alive");
  }
  ChordNode& node = *node_ptr;
  overlay::FlatTableArena& tables = store_.tables();

  // Fingers (paper's variant): for each i, the numerically smallest live
  // node in (id + 2^i, id + 2^{i+1}].
  scratch_.clear();
  for (int i = 0; i < params_.bits; ++i) {
    // (id + 2^i, id + 2^{i+1}]: first live node clockwise from id + 2^i + 1.
    const uint64_t start = space_.Add(id, (uint64_t{1} << i) + 1);
    const uint64_t end = space_.Add(id, LowBitMask(i + 1) + 1);  // + 2^{i+1}
    uint64_t candidate = store_.FirstLiveAtOrAfter(start);
    if (candidate == id) continue;  // wrapped all the way around
    // Membership check: candidate within (id + 2^i, id + 2^{i+1}]?
    if (space_.InClockwiseRangeExclIncl(space_.Add(id, uint64_t{1} << i),
                                        candidate, end)) {
      scratch_.push_back(candidate);
    }
  }
  tables.Assign(node.fingers, scratch_);

  // Successor list: the next successor_list_size live nodes clockwise.
  scratch_.clear();
  if (store_.live_count() > 1) {
    uint64_t cursor = store_.FirstLiveAtOrAfter(space_.Add(id, 1));
    for (int i = 0;
         i < params_.successor_list_size && cursor != id;
         ++i) {
      scratch_.push_back(cursor);
      cursor = store_.FirstLiveAtOrAfter(space_.Add(cursor, 1));
    }
  }
  tables.Assign(node.successors, scratch_);

  // Prune dead auxiliaries (stale-entry removal).
  tables.EraseIf(node.auxiliaries,
                 [this](uint64_t a) { return !IsAlive(a); });
  return Status::Ok();
}

void ChordNetwork::StabilizeAll() {
  for (uint64_t id : LiveNodeIds()) {
    (void)StabilizeNode(id);
  }
}

Status ChordNetwork::SetAuxiliaries(uint64_t id,
                                    std::vector<uint64_t> auxiliaries) {
  ChordNode* node = store_.Get(id);
  if (node == nullptr || !node->alive) {
    return Status::NotFound("node not alive");
  }
  store_.tables().Assign(node->auxiliaries, auxiliaries);
  return Status::Ok();
}

std::vector<uint64_t> ChordNetwork::CoreNeighborIds(uint64_t id) const {
  const ChordNode* node = GetNode(id);
  if (node == nullptr) return {};
  const auto fingers = Fingers(*node);
  const auto successors = Successors(*node);
  std::vector<uint64_t> out(fingers.begin(), fingers.end());
  out.insert(out.end(), successors.begin(), successors.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

ChordNetwork::NextHop ChordNetwork::SelectNextHop(const ChordNode& node,
                                                  uint64_t current,
                                                  uint64_t key) const {
  // Paper's policy: among live table entries between current and the key
  // (clockwise), pick the one closest to the key. Dead entries are skipped
  // ("ping before forwarding"), but the ping comes last: only an entry
  // that would become the new best pays the liveness probe
  // (docs/ALGORITHMS.md, "The hop path").
  NextHop best{current, space_.ClockwiseDistance(current, key),
               HopEntryKind::kFinger};
  auto consider = [&](uint64_t w, HopEntryKind kind) {
    if (w == current) return;
    if (!space_.InClockwiseRangeExclIncl(current, w, key)) return;
    const uint64_t remaining = space_.ClockwiseDistance(w, key);
    if (remaining < best.best_remaining && IsAlive(w)) {
      best.best_remaining = remaining;
      best.next = w;
      best.kind = kind;
    }
  };
  for (uint64_t w : Fingers(node)) consider(w, HopEntryKind::kFinger);
  for (uint64_t w : Successors(node)) consider(w, HopEntryKind::kSuccessor);
  for (uint64_t w : Auxiliaries(node)) consider(w, HopEntryKind::kAuxiliary);
  return best;
}

Status ChordNetwork::LookupInto(uint64_t origin, uint64_t key,
                                RouteResult& out, RouteTrace* trace,
                                const fault::FaultPlan* faults,
                                const latency::LatencyModel* latency) const {
  RouteCursor cursor;
  if (Status s = BeginRoute(origin, key, cursor, out, trace, faults, latency);
      !s.ok()) {
    return s;
  }
  while (!cursor.done) StepRoute(cursor, out, trace, faults, latency);
  return Status::Ok();
}

Status ChordNetwork::BeginRoute(uint64_t origin, uint64_t key,
                                RouteCursor& cursor, RouteResult& out,
                                RouteTrace* trace,
                                const fault::FaultPlan* faults,
                                const latency::LatencyModel* latency) const {
  (void)latency;
  cursor = RouteCursor{};
  out.Clear();
  if (!IsAlive(origin)) return Status::Unavailable("origin not alive");
  auto truth = ResponsibleNode(key);
  if (!truth.ok()) return truth.status();
  cursor.current = origin;
  cursor.key = key;
  cursor.truth = truth.value();
  cursor.resilient = faults != nullptr && faults->enabled();
  cursor.done = false;
  if (trace != nullptr) {
    trace->origin = origin;
    trace->key = key;
  }
  return Status::Ok();
}

void ChordNetwork::StepRoute(RouteCursor& cursor, RouteResult& out,
                             RouteTrace* trace,
                             const fault::FaultPlan* faults,
                             const latency::LatencyModel* latency) const {
  if (cursor.done) return;
  if (cursor.resilient) {
    assert(faults != nullptr && faults->enabled());
    StepResilient(cursor, out, trace, *faults, latency);
    return;
  }

  const bool timed = latency != nullptr && latency->enabled();
  auto finish = [&](uint64_t destination, int hops, bool delivered) {
    out.destination = destination;
    out.hops = hops;
    out.success = delivered && destination == cursor.truth;
    if (trace != nullptr) {
      trace->destination = out.destination;
      trace->success = out.success;
      trace->hops = out.hops;
      trace->latency_ms = out.latency_ms;
    }
    cursor.done = true;
  };

  const ChordNode* node = GetNode(cursor.current);
  assert(node != nullptr);
  const NextHop sel = SelectNextHop(*node, cursor.current, cursor.key);
  if (sel.next == cursor.current) {
    // No live entry between here and the key: to this node's knowledge it
    // is the key's predecessor, so it answers.
    finish(cursor.current, cursor.hops_taken, /*delivered=*/true);
    return;
  }
  if (sel.kind == HopEntryKind::kAuxiliary) ++out.aux_hops;
  if (trace != nullptr) {
    trace->path.push_back({cursor.current, sel.next, sel.kind,
                           sel.best_remaining});
  }
  if (timed) {
    const double ms = latency->HopLatencyMs(cursor.key, cursor.current,
                                            sel.next, cursor.hops_taken);
    out.latency_ms += ms;
    if (trace != nullptr) trace->path.back().latency_ms = ms;
  }
  out.path.push_back(cursor.current);
  cursor.current = sel.next;
  ++cursor.hops_taken;
  if (cursor.hops_taken > params_.max_route_hops) {
    // Same hop-budget failure the classic loop reports.
    finish(cursor.current, params_.max_route_hops, /*delivered=*/false);
  }
}

Status ChordNetwork::BeginLookup(uint64_t origin, uint64_t key,
                                 LookupCursor& cursor) const {
  cursor = LookupCursor{};
  if (!IsAlive(origin)) return Status::Unavailable("origin not alive");
  auto truth = ResponsibleNode(key);
  if (!truth.ok()) return truth.status();
  cursor.current = origin;
  cursor.key = key;
  cursor.truth = truth.value();
  cursor.node = GetNode(origin);
  cursor.done = false;
  return Status::Ok();
}

void ChordNetwork::StepLookup(LookupCursor& cursor) const {
  if (cursor.done) return;
  const NextHop sel = SelectNextHop(*cursor.node, cursor.current, cursor.key);
  if (sel.next == cursor.current) {
    cursor.destination = cursor.current;
    cursor.success = (cursor.current == cursor.truth);
    cursor.done = true;
    return;
  }
  if (sel.kind == HopEntryKind::kAuxiliary) ++cursor.aux_hops;
  cursor.current = sel.next;
  cursor.node = GetNode(sel.next);
  ++cursor.hops;
  if (cursor.hops > params_.max_route_hops) {
    // Same hop-budget failure LookupInto reports.
    cursor.destination = cursor.current;
    cursor.hops = params_.max_route_hops;
    cursor.success = false;
    cursor.done = true;
  }
}

void ChordNetwork::StepResilient(RouteCursor& cursor, RouteResult& out,
                                 RouteTrace* trace,
                                 const fault::FaultPlan& faults,
                                 const latency::LatencyModel* latency) const {
  const bool timed = latency != nullptr && latency->enabled();
  auto finish = [&](uint64_t destination, int hops, bool delivered) {
    out.destination = destination;
    out.hops = hops;
    out.success = delivered && destination == cursor.truth;
    if (trace != nullptr) {
      trace->destination = out.destination;
      trace->success = out.success;
      trace->hops = out.hops;
      trace->latency_ms = out.latency_ms;
    }
    cursor.done = true;
  };

  // Classic outer-loop guard: a previous visit may have spent the budget.
  if (cursor.spent > params_.max_route_hops) {
    out.budget_exhausted = true;
    finish(cursor.current, params_.max_route_hops, /*delivered=*/false);
    return;
  }

  const uint64_t key = cursor.key;
  const uint64_t current = cursor.current;
  const ChordNode* node = GetNode(current);
  assert(node != nullptr);
  // Per-visit exclusion sets. Entries that turned out dead (fail-stop or
  // stale) are never retried; drop-excluded entries become eligible again
  // only when no alternative makes progress (retransmission). These are
  // visit-local, which is why a resilient route serializes across messages
  // with nothing but the RouteCursor's plain fields.
  std::vector<uint64_t> dead_here;
  std::vector<uint64_t> dropped_here;
  int retries_here = 0;

  // Per-visit retry loop: select the best non-excluded entry, run it
  // through the fault gates, and either forward or exclude and retry.
  while (true) {
    uint64_t next = current;
    uint64_t best_remaining = space_.ClockwiseDistance(current, key);
    HopEntryKind next_kind = HopEntryKind::kFinger;
    bool next_is_dead = false;

    auto excluded = [](const std::vector<uint64_t>& set, uint64_t w) {
      return std::find(set.begin(), set.end(), w) != set.end();
    };
    auto scan = [&](bool allow_retransmit) {
      next = current;
      best_remaining = space_.ClockwiseDistance(current, key);
      auto consider = [&](uint64_t w, HopEntryKind kind) {
        if (w == current || excluded(dead_here, w)) return;
        if (!allow_retransmit && excluded(dropped_here, w)) return;
        if (!space_.InClockwiseRangeExclIncl(current, w, key)) return;
        const uint64_t remaining = space_.ClockwiseDistance(w, key);
        if (remaining >= best_remaining) return;
        const bool alive = IsAlive(w);
        // Ping-before-forward still skips known-dead entries — unless
        // this lookup falls inside the entry's stale window, in which
        // case the holder believes the ping and forwards into the void.
        if (!alive && !faults.StaleBelievedAlive(key, current, w)) return;
        best_remaining = remaining;
        next = w;
        next_kind = kind;
        next_is_dead = !alive;
      };
      for (uint64_t w : Fingers(*node)) consider(w, HopEntryKind::kFinger);
      for (uint64_t w : Successors(*node)) {
        consider(w, HopEntryKind::kSuccessor);
      }
      for (uint64_t w : Auxiliaries(*node)) {
        consider(w, HopEntryKind::kAuxiliary);
      }
    };
    scan(/*allow_retransmit=*/false);
    if (next == current && !dropped_here.empty()) {
      scan(/*allow_retransmit=*/true);
    }

    if (next == current) {
      // No believed-live entry between here and the key: to this node's
      // knowledge it is the key's predecessor, so it answers.
      finish(current, cursor.hops_taken, /*delivered=*/true);
      return;
    }

    // Fault gates, in failure-cause order: a dead entry can never
    // receive, a fail-stopped target is down for this whole lookup, and
    // an otherwise-healthy forward can still lose its message.
    bool failed = false;
    if (next_is_dead) {
      ++out.stale_forwards;
      out.dead_evictions.emplace_back(current, next);
      dead_here.push_back(next);
      failed = true;
    } else if (faults.FailStopped(key, next)) {
      ++out.failstop_skips;
      dead_here.push_back(next);
      failed = true;
    } else if (faults.DropForward(key, current, next, cursor.attempt++)) {
      ++out.dropped_forwards;
      dropped_here.push_back(next);
      failed = true;
    }

    if (!failed) {
      if (next_kind == HopEntryKind::kAuxiliary) ++out.aux_hops;
      if (trace != nullptr) {
        trace->path.push_back({current, next, next_kind, best_remaining,
                               /*dropped=*/false,
                               /*retried=*/retries_here > 0});
      }
      if (timed) {
        const double ms =
            latency->HopLatencyMs(key, current, next, cursor.spent);
        out.latency_ms += ms;
        if (trace != nullptr) trace->path.back().latency_ms = ms;
      }
      out.path.push_back(current);
      cursor.current = next;
      ++cursor.hops_taken;
      ++cursor.spent;
      return;  // next node visit = next StepRoute
    }

    // Failed attempt: charge budgets, honor the retry policy.
    ++out.retries;
    ++retries_here;
    ++cursor.spent;
    if (trace != nullptr) {
      trace->path.push_back({current, next, next_kind, best_remaining,
                             /*dropped=*/true, /*retried=*/false});
    }
    if (timed) {
      const double ms = latency->FailedAttemptMs();
      out.latency_ms += ms;
      if (trace != nullptr) trace->path.back().latency_ms = ms;
    }
    if (!faults.config().retry) {
      finish(current, cursor.hops_taken, /*delivered=*/false);
      return;
    }
    if (retries_here > faults.config().max_retries ||
        cursor.spent > params_.max_route_hops) {
      out.budget_exhausted = true;
      finish(current, cursor.hops_taken, /*delivered=*/false);
      return;
    }
  }
}

Result<RouteResult> ChordNetwork::Lookup(
    uint64_t origin, uint64_t key, RouteTrace* trace,
    const fault::FaultPlan* faults,
    const latency::LatencyModel* latency) const {
  RouteResult result;
  if (Status s = LookupInto(origin, key, result, trace, faults, latency);
      !s.ok()) {
    return s;
  }
  return result;
}

}  // namespace peercache::chord
