#include "kademlia/kademlia_network.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/bits.h"
#include "common/overlay.h"

namespace peercache::kademlia {

static_assert(overlay::Overlay<KademliaNetwork>,
              "KademliaNetwork must satisfy the Overlay concept");

namespace {

/// Appends the `k - out.size()` ids of live[lo, hi) XOR-closest to `self`
/// to `out`, in XOR-ascending order, by descending the implicit binary trie
/// of the sorted range. Precondition: every id in [lo, hi) agrees with
/// every other above `bit`. At a split, the half agreeing with `self` at
/// `bit` is uniformly XOR-closer than the other half, so visiting it first
/// and stopping once `k` ids are collected yields exactly the XOR-closest
/// set — the same set the historical sort-by-XOR-then-truncate produced,
/// in O(k + log^2 range) instead of O(range log range).
void CollectXorClosest(const std::vector<uint64_t>& live, size_t lo,
                       size_t hi, int bit, uint64_t self, size_t k,
                       std::vector<uint64_t>& out) {
  if (lo >= hi || out.size() >= k) return;
  if (hi - lo <= k - out.size()) {
    out.insert(out.end(),
               live.begin() + static_cast<std::ptrdiff_t>(lo),
               live.begin() + static_cast<std::ptrdiff_t>(hi));
    return;
  }
  assert(bit >= 0);  // distinct ids agreeing above `bit` must split by it
  const uint64_t prefix = live[lo] & ~LowBitMask(bit + 1);
  const uint64_t boundary = prefix | (uint64_t{1} << bit);
  const size_t mid = static_cast<size_t>(
      std::lower_bound(live.begin() + static_cast<std::ptrdiff_t>(lo),
                       live.begin() + static_cast<std::ptrdiff_t>(hi),
                       boundary) -
      live.begin());
  if (((self >> bit) & 1) != 0) {
    CollectXorClosest(live, mid, hi, bit - 1, self, k, out);
    CollectXorClosest(live, lo, mid, bit - 1, self, k, out);
  } else {
    CollectXorClosest(live, lo, mid, bit - 1, self, k, out);
    CollectXorClosest(live, mid, hi, bit - 1, self, k, out);
  }
}

}  // namespace

KademliaNetwork::KademliaNetwork(const KademliaParams& params)
    : params_(params), space_(params.bits) {}

Status KademliaNetwork::AddNode(uint64_t id) {
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

Status KademliaNetwork::BulkAdd(const std::vector<uint64_t>& ids) {
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

Status KademliaNetwork::RemoveNode(uint64_t id, bool forget_state) {
  KademliaNode* node = store_.Get(id);
  if (node == nullptr || !node->alive) {
    return Status::NotFound("node not alive");
  }
  node->alive = false;
  store_.MarkDead(id);
  if (forget_state) {
    node->frequencies.Clear();
    store_.tables().Release(node->bucket_entries);
    store_.tables().Release(node->bucket_ends);
    store_.tables().Release(node->auxiliaries);
  }
  return Status::Ok();
}

Status KademliaNetwork::RejoinNode(uint64_t id) {
  KademliaNode* node = store_.Get(id);
  if (node == nullptr) return Status::NotFound("unknown node");
  if (node->alive) return Status::FailedPrecondition("already alive");
  node->alive = true;
  // Auxiliaries are lost on crash; rebuilt at the next selection.
  store_.tables().Clear(node->auxiliaries);
  store_.MarkAlive(id);
  return StabilizeNode(id);
}

std::vector<uint64_t> KademliaNetwork::LiveNodeIds() const {
  return store_.live_ids();
}

Result<uint64_t> KademliaNetwork::ResponsibleNode(uint64_t key) const {
  const std::vector<uint64_t>& live = store_.live_ids();
  if (live.empty()) return Status::FailedPrecondition("empty overlay");
  // Bit descent over the sorted live array: the candidates form a range
  // sharing the prefix fixed so far; at each bit prefer the half agreeing
  // with the key (ids with that bit set sort above the half-boundary).
  size_t lo = 0, hi = live.size();
  uint64_t prefix = 0;
  for (int i = params_.bits - 1; i >= 0 && hi - lo > 1; --i) {
    const uint64_t boundary = prefix | (uint64_t{1} << i);
    const size_t mid = static_cast<size_t>(
        std::lower_bound(live.begin() + static_cast<std::ptrdiff_t>(lo),
                         live.begin() + static_cast<std::ptrdiff_t>(hi),
                         boundary) -
        live.begin());
    const bool key_bit = ((key >> i) & 1) != 0;
    if (key_bit ? mid < hi : mid == lo) {
      lo = mid;  // take the upper (bit-set) half
      prefix = boundary;
    } else {
      hi = mid;  // take the lower (bit-clear) half
    }
  }
  return live[lo];
}

Status KademliaNetwork::BeginResponsible(uint64_t key,
                                         ResponsibleCursor& cursor) const {
  cursor = ResponsibleCursor{};
  const std::vector<uint64_t>& live = store_.live_ids();
  if (live.empty()) return Status::FailedPrecondition("empty overlay");
  cursor.key = key;
  cursor.lo = 0;
  cursor.hi = live.size();
  cursor.prefix = 0;
  cursor.bit = params_.bits - 1;
  cursor.done = false;
  return Status::Ok();
}

void KademliaNetwork::StepResponsible(ResponsibleCursor& cursor) const {
  if (cursor.done) return;
  const std::vector<uint64_t>& live = store_.live_ids();
  // One level of ResponsibleNode's bit descent: split the candidate range
  // at the half-boundary for this bit and keep the half agreeing with the
  // key (ids with the bit set sort above the boundary).
  if (cursor.bit >= 0 && cursor.hi - cursor.lo > 1) {
    const uint64_t boundary = cursor.prefix | (uint64_t{1} << cursor.bit);
    const size_t mid = static_cast<size_t>(
        std::lower_bound(
            live.begin() + static_cast<std::ptrdiff_t>(cursor.lo),
            live.begin() + static_cast<std::ptrdiff_t>(cursor.hi),
            boundary) -
        live.begin());
    const bool key_bit = ((cursor.key >> cursor.bit) & 1) != 0;
    if (key_bit ? mid < cursor.hi : mid == cursor.lo) {
      cursor.lo = mid;  // take the upper (bit-set) half
      cursor.prefix = boundary;
    } else {
      cursor.hi = mid;  // take the lower (bit-clear) half
    }
    --cursor.bit;
    if (cursor.bit >= 0 && cursor.hi - cursor.lo > 1) return;
  }
  cursor.result = live[cursor.lo];
  cursor.done = true;
}

Status KademliaNetwork::StabilizeNode(uint64_t id) {
  KademliaNode* node_ptr = store_.Get(id);
  if (node_ptr == nullptr || !node_ptr->alive) {
    return Status::NotFound("node not alive");
  }
  KademliaNode& node = *node_ptr;
  const std::vector<uint64_t>& live = store_.live_ids();

  // Buckets: class c's candidates are exactly the live ids sharing the
  // first c bits with `id` and differing at bit c — a contiguous range of
  // the sorted live array (two binary searches). A range that fits keeps
  // every member (already id-sorted); an over-full range keeps the
  // bucket_size XOR-closest via trie descent, re-sorted by id — the same
  // retained set as the historical global sort-by-XOR-then-truncate, found
  // without touching the other n - range ids. Trailing empty classes are
  // not materialized.
  scratch_entries_.clear();
  scratch_ends_.clear();
  const size_t bucket_size = static_cast<size_t>(params_.bucket_size);

  // Pass 1 (lazy): size every class's candidate range — two binary
  // searches each, no copying — and fix the per-class retention target.
  // With bucket_capacity unset every target is bucket_size (the historical
  // tables, bit for bit); with it set, each non-empty class keeps at least
  // one entry and the leftover budget goes to the XOR-closest classes.
  size_t los[64], his[64], keep[64];
  for (int c = 0; c < params_.bits; ++c) {
    const int flip = params_.bits - 1 - c;  // bit position that differs
    const uint64_t flipped = id ^ (uint64_t{1} << flip);
    los[c] = store_.LowerBoundLive(flipped & ~LowBitMask(flip));
    his[c] = store_.UpperBoundLive(flipped | LowBitMask(flip));
    keep[c] = bucket_size;
  }
  if (params_.bucket_capacity > 0) {
    size_t floor_total = 0;
    for (int c = 0; c < params_.bits; ++c) {
      keep[c] = los[c] < his[c] ? 1 : 0;
      floor_total += keep[c];
    }
    const size_t capacity = static_cast<size_t>(params_.bucket_capacity);
    size_t extra = capacity > floor_total ? capacity - floor_total : 0;
    for (int c = params_.bits - 1; c >= 0 && extra > 0; --c) {
      if (los[c] >= his[c]) continue;
      const size_t want = std::min(his[c] - los[c], bucket_size);
      const size_t add = std::min(extra, want - keep[c]);
      keep[c] += add;
      extra -= add;
    }
  }

  size_t last_nonempty = 0;
  bool any = false;
  for (int c = 0; c < params_.bits; ++c) {
    const int flip = params_.bits - 1 - c;  // bit position that differs
    const size_t lo = los[c];
    const size_t hi = his[c];
    if (lo < hi) {
      if (hi - lo <= keep[c]) {
        scratch_entries_.insert(
            scratch_entries_.end(),
            live.begin() + static_cast<std::ptrdiff_t>(lo),
            live.begin() + static_cast<std::ptrdiff_t>(hi));
      } else {
        scratch_bucket_.clear();
        CollectXorClosest(live, lo, hi, flip - 1, id, keep[c],
                          scratch_bucket_);
        std::sort(scratch_bucket_.begin(), scratch_bucket_.end());
        scratch_entries_.insert(scratch_entries_.end(),
                                scratch_bucket_.begin(),
                                scratch_bucket_.end());
      }
      last_nonempty = static_cast<size_t>(c);
      any = true;
    }
    scratch_ends_.push_back(scratch_entries_.size());
  }
  scratch_ends_.resize(any ? last_nonempty + 1 : 0);
  store_.tables().Assign(node.bucket_entries, scratch_entries_);
  store_.tables().Assign(node.bucket_ends, scratch_ends_);

  // Prune dead auxiliaries (stale-entry removal).
  store_.tables().EraseIf(node.auxiliaries,
                          [this](uint64_t a) { return !IsAlive(a); });
  return Status::Ok();
}

void KademliaNetwork::StabilizeAll() {
  for (uint64_t id : LiveNodeIds()) {
    (void)StabilizeNode(id);
  }
}

Status KademliaNetwork::SetAuxiliaries(uint64_t id,
                                       std::vector<uint64_t> auxiliaries) {
  KademliaNode* node = store_.Get(id);
  if (node == nullptr || !node->alive) {
    return Status::NotFound("node not alive");
  }
  store_.tables().Assign(node->auxiliaries, auxiliaries);
  return Status::Ok();
}

std::vector<uint64_t> KademliaNetwork::CoreNeighborIds(uint64_t id) const {
  const KademliaNode* node = GetNode(id);
  if (node == nullptr) return {};
  const auto entries = BucketEntries(*node);
  std::vector<uint64_t> out(entries.begin(), entries.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

KademliaNetwork::NextHop KademliaNetwork::SelectNextHop(
    const KademliaNode& node, uint64_t current, uint64_t key) const {
  // Greedy XOR descent: among live table entries strictly closer to the
  // key than the current node, pick the closest. Dead entries are skipped
  // ("ping before forwarding"), but the ping comes last: only an entry
  // that would become the new best pays the liveness probe
  // (docs/ALGORITHMS.md, "The hop path").
  NextHop best{current, current ^ key, HopEntryKind::kBucket};
  auto consider = [&](uint64_t w, HopEntryKind kind) {
    if (w == current) return;
    const uint64_t remaining = w ^ key;
    if (remaining < best.best_remaining && IsAlive(w)) {
      best.best_remaining = remaining;
      best.next = w;
      best.kind = kind;
    }
  };
  for (uint64_t w : BucketEntries(node)) consider(w, HopEntryKind::kBucket);
  for (uint64_t w : Auxiliaries(node)) consider(w, HopEntryKind::kAuxiliary);
  return best;
}

Status KademliaNetwork::LookupInto(uint64_t origin, uint64_t key,
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

Status KademliaNetwork::BeginRoute(uint64_t origin, uint64_t key,
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

void KademliaNetwork::StepRoute(RouteCursor& cursor, RouteResult& out,
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

  const KademliaNode* node = GetNode(cursor.current);
  assert(node != nullptr);
  const NextHop sel = SelectNextHop(*node, cursor.current, cursor.key);
  if (sel.next == cursor.current) {
    // No live entry XOR-closer to the key: to this node's knowledge it
    // is the key's closest node, so it answers.
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

Status KademliaNetwork::BeginLookup(uint64_t origin, uint64_t key,
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

void KademliaNetwork::StepLookup(LookupCursor& cursor) const {
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

void KademliaNetwork::StepResilient(RouteCursor& cursor, RouteResult& out,
                                    RouteTrace* trace,
                                    const fault::FaultPlan& faults,
                                    const latency::LatencyModel* latency)
    const {
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
  const KademliaNode* node = GetNode(current);
  assert(node != nullptr);
  // Per-visit exclusion sets. Entries that turned out dead (fail-stop or
  // stale) are never retried; drop-excluded entries become eligible again
  // only when no alternative makes progress (retransmission). Visit-local,
  // so they never cross a message boundary.
  std::vector<uint64_t> dead_here;
  std::vector<uint64_t> dropped_here;
  int retries_here = 0;

  // Per-visit retry loop: select the best non-excluded entry, run it
  // through the fault gates, and either forward or exclude and retry.
  while (true) {
    uint64_t next = current;
    uint64_t best_remaining = current ^ key;
    HopEntryKind next_kind = HopEntryKind::kBucket;
    bool next_is_dead = false;

    auto excluded = [](const std::vector<uint64_t>& set, uint64_t w) {
      return std::find(set.begin(), set.end(), w) != set.end();
    };
    auto scan = [&](bool allow_retransmit) {
      next = current;
      best_remaining = current ^ key;
      auto consider = [&](uint64_t w, HopEntryKind kind) {
        if (w == current || excluded(dead_here, w)) return;
        if (!allow_retransmit && excluded(dropped_here, w)) return;
        const uint64_t remaining = w ^ key;
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
      for (uint64_t w : BucketEntries(*node)) {
        consider(w, HopEntryKind::kBucket);
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
      // No believed-live entry XOR-closer to the key: to this node's
      // knowledge it is the key's closest node, so it answers.
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

Result<RouteResult> KademliaNetwork::Lookup(
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

}  // namespace peercache::kademlia
