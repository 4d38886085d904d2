#include "pastry/pastry_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "common/bits.h"
#include "common/overlay.h"

namespace peercache::pastry {

static_assert(overlay::Overlay<PastryNetwork>,
              "PastryNetwork must satisfy the Overlay concept");

namespace {

double EuclideanDistance(const Coord& a, const Coord& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

PastryNetwork::PastryNetwork(const PastryParams& params, uint64_t seed)
    : params_(params), space_(params.bits), coord_rng_(seed) {}

std::vector<uint64_t> PastryNetwork::LiveNodeIds() const {
  return store_.live_ids();
}

double PastryNetwork::Proximity(uint64_t a, uint64_t b) const {
  const PastryNode* na = GetNode(a);
  const PastryNode* nb = GetNode(b);
  assert(na != nullptr && nb != nullptr);
  return EuclideanDistance(na->coord, nb->coord);
}

Status PastryNetwork::AddNode(uint64_t id) {
  if (!space_.Contains(id)) return Status::InvalidArgument("id out of range");
  if (store_.IsAlive(id)) {
    return Status::InvalidArgument("live id already used");
  }
  auto [node, inserted] = store_.Emplace(id, params_.frequency_capacity, params_.freq_sketch);
  node->id = id;
  if (inserted) {
    node->coord = Coord{coord_rng_.UniformDouble(),
                        coord_rng_.UniformDouble()};
  }
  node->alive = true;
  store_.tables().Clear(node->auxiliaries);
  store_.MarkAlive(id);
  return StabilizeNode(id);
}

Status PastryNetwork::BulkAdd(const std::vector<uint64_t>& ids) {
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
    if (inserted) {
      node->coord = Coord{coord_rng_.UniformDouble(),
                          coord_rng_.UniformDouble()};
    }
    node->alive = true;
    store_.tables().Clear(node->auxiliaries);
  }
  store_.BulkMarkAlive(ids);
  return Status::Ok();
}

Status PastryNetwork::RemoveNode(uint64_t id) {
  PastryNode* node = store_.Get(id);
  if (node == nullptr || !node->alive) {
    return Status::NotFound("node not alive");
  }
  node->alive = false;
  store_.MarkDead(id);
  return Status::Ok();
}

Status PastryNetwork::RejoinNode(uint64_t id) {
  PastryNode* node = store_.Get(id);
  if (node == nullptr) return Status::NotFound("unknown node");
  if (node->alive) return Status::FailedPrecondition("already alive");
  node->alive = true;
  store_.tables().Clear(node->auxiliaries);
  store_.MarkAlive(id);
  return StabilizeNode(id);
}

Status PastryNetwork::StabilizeNode(uint64_t id) {
  PastryNode* node_ptr = store_.Get(id);
  if (node_ptr == nullptr || !node_ptr->alive) {
    return Status::NotFound("node not alive");
  }
  PastryNode& node = *node_ptr;
  overlay::FlatTableArena& tables = store_.tables();
  const std::vector<uint64_t>& live = store_.live_ids();

  // Routing rows with proximity neighbor selection (FreePastry's table
  // construction: the underlay-closest candidate per row). Row r's
  // candidates are exactly the live ids sharing the first r bits with `id`
  // and differing at bit r — a contiguous range of the sorted live array,
  // found with two binary searches instead of a full-membership scan.
  // Scanning the range in ascending id order with a strict `<` keeps the
  // winner identical to the historical scan; a positive stabilize_sample
  // probes evenly spaced candidates instead (large-n builds).
  scratch_.assign(static_cast<size_t>(params_.bits), kNoEntry);
  for (int r = 0; r < params_.bits; ++r) {
    const int flip = params_.bits - 1 - r;  // bit position that differs
    const uint64_t flipped = id ^ (uint64_t{1} << flip);
    const size_t lo = store_.LowerBoundLive(flipped & ~LowBitMask(flip));
    const size_t hi = store_.UpperBoundLive(flipped | LowBitMask(flip));
    if (lo >= hi) continue;
    const size_t len = hi - lo;
    uint64_t best = kNoEntry;
    double best_dist = 0.0;
    auto probe = [&](uint64_t w) {
      const double d = Proximity(id, w);
      if (best == kNoEntry || d < best_dist) {
        best = w;
        best_dist = d;
      }
    };
    if (params_.stabilize_sample <= 0 ||
        len <= static_cast<size_t>(params_.stabilize_sample)) {
      for (size_t i = lo; i < hi; ++i) probe(live[i]);
    } else {
      const size_t sample = static_cast<size_t>(params_.stabilize_sample);
      for (size_t i = 0; i < sample; ++i) {
        probe(live[lo + (i * len) / sample]);
      }
    }
    scratch_[static_cast<size_t>(r)] = best;
  }
  tables.Assign(node.routing_rows, scratch_);

  // Leaf set: numerically nearest live ids, leaf_set_half per side, with
  // the two sides kept separate so the router can compute the contiguous
  // coverage arc exactly.
  scratch_.clear();
  if (live.size() > 1) {
    size_t succ = store_.UpperBoundLive(id);
    for (int i = 0; i < params_.leaf_set_half; ++i) {
      if (succ == live.size()) succ = 0;  // wrap
      if (live[succ] == id) break;        // wrapped around
      scratch_.push_back(live[succ]);
      ++succ;
    }
  }
  tables.Assign(node.leaf_succ, scratch_);

  const auto succ_span = LeafSucc(node);
  scratch_.clear();
  if (live.size() > 1) {
    size_t pred = store_.LowerBoundLive(id);
    for (int i = 0; i < params_.leaf_set_half; ++i) {
      if (pred == 0) pred = live.size();  // wrap
      --pred;
      if (live[pred] == id) break;
      if (std::find(succ_span.begin(), succ_span.end(), live[pred]) !=
          succ_span.end()) {
        break;  // small ring: sides met
      }
      scratch_.push_back(live[pred]);
    }
  }
  tables.Assign(node.leaf_pred, scratch_);

  tables.EraseIf(node.auxiliaries,
                 [this](uint64_t a) { return !IsAlive(a); });
  return Status::Ok();
}

void PastryNetwork::StabilizeAll() {
  for (uint64_t id : LiveNodeIds()) {
    (void)StabilizeNode(id);
  }
}

Status PastryNetwork::SetAuxiliaries(uint64_t id,
                                     std::vector<uint64_t> auxiliaries) {
  PastryNode* node = store_.Get(id);
  if (node == nullptr || !node->alive) {
    return Status::NotFound("node not alive");
  }
  store_.tables().Assign(node->auxiliaries, auxiliaries);
  return Status::Ok();
}

std::vector<uint64_t> PastryNetwork::CoreNeighborIds(uint64_t id) const {
  const PastryNode* node = GetNode(id);
  if (node == nullptr) return {};
  std::vector<uint64_t> out;
  for (uint64_t w : RoutingRows(*node)) {
    if (w != kNoEntry) out.push_back(w);
  }
  const auto succ = LeafSucc(*node);
  const auto pred = LeafPred(*node);
  out.insert(out.end(), succ.begin(), succ.end());
  out.insert(out.end(), pred.begin(), pred.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<uint64_t> PastryNetwork::ResponsibleNode(uint64_t key) const {
  const std::vector<uint64_t>& live = store_.live_ids();
  if (live.empty()) return Status::FailedPrecondition("empty overlay");
  // Numerically closest on the ring; the clockwise-nearer (lower distance)
  // wins, exact ties go to the smaller id.
  const size_t pos = store_.LowerBoundLive(key);
  const uint64_t succ = (pos == live.size()) ? live.front() : live[pos];
  const uint64_t pred = (pos == 0) ? live.back() : live[pos - 1];
  const uint64_t d_succ = space_.ClockwiseDistance(key, succ);
  const uint64_t d_pred = space_.ClockwiseDistance(pred, key);
  if (d_succ < d_pred) return succ;
  if (d_pred < d_succ) return pred;
  return std::min(pred, succ);
}

Status PastryNetwork::BeginResponsible(uint64_t key,
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

void PastryNetwork::StepResponsible(ResponsibleCursor& cursor) const {
  if (cursor.done) return;
  const std::vector<uint64_t>& live = store_.live_ids();
  // One probe of the lower-bound bisection: first index with id >= key.
  const size_t mid = cursor.lo + (cursor.hi - cursor.lo) / 2;
  if (live[mid] < cursor.key) {
    cursor.lo = mid + 1;
  } else {
    cursor.hi = mid;
  }
  if (cursor.lo < cursor.hi) return;
  // The bounds met at the unique insertion point; replay ResponsibleNode's
  // succ/pred tie-break verbatim.
  const size_t pos = cursor.lo;
  const uint64_t succ = (pos == live.size()) ? live.front() : live[pos];
  const uint64_t pred = (pos == 0) ? live.back() : live[pos - 1];
  const uint64_t d_succ = space_.ClockwiseDistance(cursor.key, succ);
  const uint64_t d_pred = space_.ClockwiseDistance(pred, cursor.key);
  cursor.result = d_succ < d_pred   ? succ
                  : d_pred < d_succ ? pred
                                    : std::min(pred, succ);
  cursor.done = true;
}

PastryNetwork::Decision PastryNetwork::DecideNext(const PastryNode& node,
                                                  uint64_t current,
                                                  uint64_t key,
                                                  bool numeric_mode) const {
  Decision out;
  auto ring_distance = [this](uint64_t a, uint64_t b) {
    return std::min(space_.ClockwiseDistance(a, b),
                    space_.ClockwiseDistance(b, a));
  };
  const int current_lcp = CommonPrefixLength(current, key, params_.bits);
  if (current_lcp == params_.bits) {  // exact hit
    out.action = Decision::Action::kDeliverHere;
    return out;
  }

  const auto rows = RoutingRows(node);
  const auto succ = LeafSucc(node);
  const auto pred = LeafPred(node);
  const auto aux = Auxiliaries(node);

  // Rule R1 (leaf-set delivery): if the key falls within the span of this
  // node's live leaf set, the numerically closest member (or this node)
  // answers directly. This is Pastry's termination rule and guarantees the
  // route cannot oscillate around power-of-two id boundaries.
  uint64_t cw_span = 0, ccw_span = 0;
  for (uint64_t w : succ) {
    if (!IsAlive(w)) continue;
    cw_span = std::max(cw_span, space_.ClockwiseDistance(current, w));
  }
  for (uint64_t w : pred) {
    if (!IsAlive(w)) continue;
    ccw_span = std::max(ccw_span, space_.ClockwiseDistance(w, current));
  }
  const bool in_leaf_span =
      space_.ClockwiseDistance(current, key) <= cw_span ||
      space_.ClockwiseDistance(key, current) <= ccw_span;
  if (in_leaf_span) {
    uint64_t closest = current;
    uint64_t closest_dist = ring_distance(current, key);
    auto consider_leaf = [&](uint64_t w) {
      if (!IsAlive(w)) return;
      const uint64_t d = ring_distance(w, key);
      if (d < closest_dist || (d == closest_dist && w < closest)) {
        closest_dist = d;
        closest = w;
      }
    };
    for (uint64_t w : succ) consider_leaf(w);
    for (uint64_t w : pred) consider_leaf(w);
    if (closest == current) {
      out.action = Decision::Action::kDeliverHere;
    } else {
      out.action = Decision::Action::kDeliverAt;
      out.next = closest;
      out.kind = HopEntryKind::kLeafSet;
    }
    return out;
  }

  // Rule R2 (prefix routing): best strictly-longer prefix match with the
  // key; ties on prefix length break by underlay proximity to the current
  // node (FreePastry's locality-aware choice among equal-progress
  // candidates). R2 and R3 test progress before liveness, so an entry that
  // cannot win pays no probe (docs/ALGORITHMS.md, "The hop path"); a tie on
  // prefix length is probed before its proximity is read.
  uint64_t next = kNoEntry;
  int best_lcp = current_lcp;
  double best_prox = 0;
  HopEntryKind next_kind = HopEntryKind::kRoutingRow;
  if (!numeric_mode) {
    auto consider_prefix = [&](uint64_t w, HopEntryKind kind) {
      if (w == kNoEntry || w == current) return;
      const int l = CommonPrefixLength(w, key, params_.bits);
      if (l <= current_lcp) return;
      if (next != kNoEntry && l < best_lcp) return;
      const uint32_t slot = store_.SlotOf(w);
      if (slot == decltype(store_)::kNoSlot || !store_.IsAliveSlot(slot)) {
        return;
      }
      // Proximity(current, w) from the records in hand: one index probe.
      const double d =
          EuclideanDistance(node.coord, store_.at_slot(slot).coord);
      if (next == kNoEntry || l > best_lcp || d < best_prox) {
        next = w;
        best_lcp = l;
        best_prox = d;
        next_kind = kind;
      }
    };
    for (uint64_t w : rows) consider_prefix(w, HopEntryKind::kRoutingRow);
    for (uint64_t w : succ) consider_prefix(w, HopEntryKind::kLeafSet);
    for (uint64_t w : pred) consider_prefix(w, HopEntryKind::kLeafSet);
    for (uint64_t w : aux) consider_prefix(w, HopEntryKind::kAuxiliary);
  }

  if (next == kNoEntry) {
    // Rule R3 ("rare case" fallback): the numerically closest entry that
    // is strictly closer to the key than this node, from here on out.
    out.enters_numeric = true;
    uint64_t best_dist = ring_distance(current, key);
    auto consider_numeric = [&](uint64_t w, HopEntryKind kind) {
      if (w == kNoEntry || w == current) return;
      const uint64_t d = ring_distance(w, key);
      if (d < best_dist && IsAlive(w)) {
        best_dist = d;
        next = w;
        next_kind = kind;
      }
    };
    for (uint64_t w : rows) consider_numeric(w, HopEntryKind::kRoutingRow);
    for (uint64_t w : succ) consider_numeric(w, HopEntryKind::kLeafSet);
    for (uint64_t w : pred) consider_numeric(w, HopEntryKind::kLeafSet);
    for (uint64_t w : aux) consider_numeric(w, HopEntryKind::kAuxiliary);
  }

  if (next == kNoEntry) {
    // Nothing known makes progress: deliver here.
    out.action = Decision::Action::kDeliverHere;
    return out;
  }
  out.action = Decision::Action::kForward;
  out.next = next;
  out.kind = next_kind;
  return out;
}

Status PastryNetwork::LookupInto(uint64_t origin, uint64_t key,
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

Status PastryNetwork::BeginRoute(uint64_t origin, uint64_t key,
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

void PastryNetwork::StepRoute(RouteCursor& cursor, RouteResult& out,
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
  const uint64_t key = cursor.key;
  // Trace metric: prefix digits still to resolve after landing on `w`.
  auto prefix_remaining = [this, key](uint64_t w) {
    return static_cast<uint64_t>(params_.bits -
                                 CommonPrefixLength(w, key, params_.bits));
  };
  auto finish = [&](uint64_t destination, int hops, bool success) {
    out.destination = destination;
    out.hops = hops;
    out.success = success;
    if (trace != nullptr) {
      trace->destination = out.destination;
      trace->success = out.success;
      trace->hops = out.hops;
      trace->latency_ms = out.latency_ms;
    }
    cursor.done = true;
  };

  const uint64_t current = cursor.current;
  const PastryNode* node = GetNode(current);
  assert(node != nullptr);
  // Once prefix routing is exhausted the route switches permanently to
  // numeric (ring-greedy) mode — the cursor's latch; see the classic loop's
  // oscillation rationale in DecideNext.
  const Decision d = DecideNext(*node, current, key, cursor.numeric_mode);

  if (d.action == Decision::Action::kDeliverHere) {
    finish(current, cursor.hops_taken, current == cursor.truth);
    return;
  }
  if (d.action == Decision::Action::kDeliverAt) {
    // R1's final leaf-set hop: the chosen member answers directly.
    out.path.push_back(current);
    if (trace != nullptr) {
      trace->path.push_back({current, d.next, HopEntryKind::kLeafSet,
                             prefix_remaining(d.next)});
    }
    if (timed) {
      const double ms =
          latency->HopLatencyMs(key, current, d.next, cursor.hops_taken);
      out.latency_ms += ms;
      if (trace != nullptr) trace->path.back().latency_ms = ms;
    }
    finish(d.next, cursor.hops_taken + 1, d.next == cursor.truth);
    return;
  }

  if (d.enters_numeric) cursor.numeric_mode = true;
  if (d.kind == HopEntryKind::kAuxiliary) ++out.aux_hops;
  if (trace != nullptr) {
    trace->path.push_back({current, d.next, d.kind,
                           prefix_remaining(d.next)});
  }
  if (timed) {
    const double ms =
        latency->HopLatencyMs(key, current, d.next, cursor.hops_taken);
    out.latency_ms += ms;
    if (trace != nullptr) trace->path.back().latency_ms = ms;
  }
  out.path.push_back(current);
  cursor.current = d.next;
  ++cursor.hops_taken;
  if (cursor.hops_taken > params_.max_route_hops) {
    // Same hop-budget failure the classic loop reports.
    finish(cursor.current, params_.max_route_hops, false);
  }
}

Status PastryNetwork::BeginLookup(uint64_t origin, uint64_t key,
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

void PastryNetwork::StepLookup(LookupCursor& cursor) const {
  if (cursor.done) return;
  const Decision d =
      DecideNext(*cursor.node, cursor.current, cursor.key,
                 cursor.numeric_mode);
  if (d.action == Decision::Action::kDeliverHere) {
    cursor.destination = cursor.current;
    cursor.success = (cursor.current == cursor.truth);
    cursor.done = true;
    return;
  }
  if (d.action == Decision::Action::kDeliverAt) {
    cursor.destination = d.next;
    ++cursor.hops;
    cursor.success = (d.next == cursor.truth);
    cursor.done = true;
    return;
  }
  if (d.enters_numeric) cursor.numeric_mode = true;
  if (d.kind == HopEntryKind::kAuxiliary) ++cursor.aux_hops;
  cursor.current = d.next;
  cursor.node = GetNode(d.next);
  ++cursor.hops;
  if (cursor.hops > params_.max_route_hops) {
    // Same hop-budget failure LookupInto reports.
    cursor.destination = cursor.current;
    cursor.hops = params_.max_route_hops;
    cursor.success = false;
    cursor.done = true;
  }
}

void PastryNetwork::StepResilient(RouteCursor& cursor, RouteResult& out,
                                  RouteTrace* trace,
                                  const fault::FaultPlan& faults,
                                  const latency::LatencyModel* latency) const {
  const bool timed = latency != nullptr && latency->enabled();
  const uint64_t key = cursor.key;
  auto ring_distance = [this](uint64_t a, uint64_t b) {
    return std::min(space_.ClockwiseDistance(a, b),
                    space_.ClockwiseDistance(b, a));
  };
  auto prefix_remaining = [this, key](uint64_t w) {
    return static_cast<uint64_t>(params_.bits -
                                 CommonPrefixLength(w, key, params_.bits));
  };
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

  const uint64_t current = cursor.current;
  bool numeric_mode = cursor.numeric_mode;
  {
    const PastryNode* node = GetNode(current);
    assert(node != nullptr);
    const auto rows = RoutingRows(*node);
    const auto leaf_succ = LeafSucc(*node);
    const auto leaf_pred = LeafPred(*node);
    const auto auxiliaries = Auxiliaries(*node);
    const int current_lcp = CommonPrefixLength(current, key, params_.bits);
    if (current_lcp == params_.bits) {  // exact hit
      finish(current, cursor.hops_taken, /*delivered=*/true);
      return;
    }
    // Per-visit exclusion sets; see ChordNetwork::StepResilient for the
    // dead-vs-dropped retransmission policy. Visit-local, so they never
    // cross a message boundary.
    std::vector<uint64_t> dead_here;
    std::vector<uint64_t> dropped_here;
    int retries_here = 0;

    while (true) {
      uint64_t next = kNoEntry;
      HopEntryKind next_kind = HopEntryKind::kRoutingRow;
      bool next_is_dead = false;
      bool delivery_hop = false;  // R1's final leaf-set hop terminates
      bool deliver_here = false;

      auto excluded = [](const std::vector<uint64_t>& set, uint64_t w) {
        return std::find(set.begin(), set.end(), w) != set.end();
      };
      // The stale-window twist on "ping before forwarding": a dead entry
      // inside its window is believed alive and stays a candidate.
      auto believed_alive = [&](uint64_t w) {
        return IsAlive(w) || faults.StaleBelievedAlive(key, current, w);
      };
      auto select = [&](bool allow_retransmit) {
        next = kNoEntry;
        next_kind = HopEntryKind::kRoutingRow;
        next_is_dead = false;
        delivery_hop = false;
        deliver_here = false;
        // R2/R3 candidates: the cheap exclusion tests. Liveness is asked
        // last, only of an entry that would become the new best.
        auto eligible = [&](uint64_t w) {
          if (w == kNoEntry || w == current || excluded(dead_here, w)) {
            return false;
          }
          return allow_retransmit || !excluded(dropped_here, w);
        };
        // R1 never honors the drop-exclusion set: its hop is final (the
        // chosen member answers), so settling for the second-closest member
        // after a drop would deliver at the wrong node. A dropped delivery
        // message is retransmitted to the same member instead — each retry
        // is a fresh attempt counter and thus a fresh deterministic draw.
        auto usable_r1 = [&](uint64_t w) {
          return w != kNoEntry && w != current && !excluded(dead_here, w) &&
                 believed_alive(w);
        };

        // Rule R1 (leaf-set delivery), over believed-live usable members.
        uint64_t cw_span = 0, ccw_span = 0;
        for (uint64_t w : leaf_succ) {
          if (!usable_r1(w)) continue;
          cw_span = std::max(cw_span, space_.ClockwiseDistance(current, w));
        }
        for (uint64_t w : leaf_pred) {
          if (!usable_r1(w)) continue;
          ccw_span = std::max(ccw_span, space_.ClockwiseDistance(w, current));
        }
        const bool in_leaf_span =
            space_.ClockwiseDistance(current, key) <= cw_span ||
            space_.ClockwiseDistance(key, current) <= ccw_span;
        if (in_leaf_span) {
          uint64_t closest = current;
          uint64_t closest_dist = ring_distance(current, key);
          auto consider_leaf = [&](uint64_t w) {
            if (!usable_r1(w)) return;
            const uint64_t d = ring_distance(w, key);
            if (d < closest_dist || (d == closest_dist && w < closest)) {
              closest_dist = d;
              closest = w;
            }
          };
          for (uint64_t w : leaf_succ) consider_leaf(w);
          for (uint64_t w : leaf_pred) consider_leaf(w);
          if (closest == current) {
            deliver_here = true;
          } else {
            next = closest;
            next_kind = HopEntryKind::kLeafSet;
            next_is_dead = !IsAlive(closest);
            delivery_hop = true;
          }
          return;
        }

        // Rule R2 (prefix routing).
        int best_lcp = current_lcp;
        double best_prox = 0;
        if (!numeric_mode) {
          auto consider_prefix = [&](uint64_t w, HopEntryKind kind) {
            if (!eligible(w)) return;
            const int l = CommonPrefixLength(w, key, params_.bits);
            if (l <= current_lcp) return;
            if (next != kNoEntry && l < best_lcp) return;
            if (!believed_alive(w)) return;
            const double d = Proximity(current, w);
            if (next == kNoEntry || l > best_lcp || d < best_prox) {
              next = w;
              best_lcp = l;
              best_prox = d;
              next_kind = kind;
            }
          };
          for (uint64_t w : rows) {
            consider_prefix(w, HopEntryKind::kRoutingRow);
          }
          for (uint64_t w : leaf_succ) {
            consider_prefix(w, HopEntryKind::kLeafSet);
          }
          for (uint64_t w : leaf_pred) {
            consider_prefix(w, HopEntryKind::kLeafSet);
          }
          for (uint64_t w : auxiliaries) {
            consider_prefix(w, HopEntryKind::kAuxiliary);
          }
        }

        // Rule R3 ("rare case" numeric fallback).
        if (next == kNoEntry) {
          uint64_t best_dist = ring_distance(current, key);
          auto consider_numeric = [&](uint64_t w, HopEntryKind kind) {
            if (!eligible(w)) return;
            const uint64_t d = ring_distance(w, key);
            if (d < best_dist && believed_alive(w)) {
              best_dist = d;
              next = w;
              next_kind = kind;
            }
          };
          for (uint64_t w : rows) {
            consider_numeric(w, HopEntryKind::kRoutingRow);
          }
          for (uint64_t w : leaf_succ) {
            consider_numeric(w, HopEntryKind::kLeafSet);
          }
          for (uint64_t w : leaf_pred) {
            consider_numeric(w, HopEntryKind::kLeafSet);
          }
          for (uint64_t w : auxiliaries) {
            consider_numeric(w, HopEntryKind::kAuxiliary);
          }
        }
        if (next != kNoEntry) next_is_dead = !IsAlive(next);
      };
      select(/*allow_retransmit=*/false);
      if (next == kNoEntry && !deliver_here && !dropped_here.empty()) {
        select(/*allow_retransmit=*/true);
      }

      if (deliver_here || next == kNoEntry) {
        // Key within our own span, or nothing known makes progress.
        finish(current, cursor.hops_taken, /*delivered=*/true);
        return;
      }
      // Entering R3 is a per-lookup latch, but only once the chosen hop
      // actually happens — a failed attempt must not flip the mode the
      // fault-free route never entered.
      const bool numeric_hop =
          !delivery_hop && !numeric_mode &&
          CommonPrefixLength(next, key, params_.bits) <= current_lcp;

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
        if (numeric_hop) cursor.numeric_mode = true;
        if (next_kind == HopEntryKind::kAuxiliary) ++out.aux_hops;
        if (trace != nullptr) {
          trace->path.push_back({current, next, next_kind,
                                 prefix_remaining(next), /*dropped=*/false,
                                 /*retried=*/retries_here > 0});
        }
        if (timed) {
          const double ms =
              latency->HopLatencyMs(key, current, next, cursor.spent);
          out.latency_ms += ms;
          if (trace != nullptr) trace->path.back().latency_ms = ms;
        }
        out.path.push_back(current);
        ++cursor.hops_taken;
        ++cursor.spent;
        if (delivery_hop) {
          // R1's termination rule: the leaf-set member closest to the key
          // answers directly.
          finish(next, cursor.hops_taken, /*delivered=*/true);
          return;
        }
        cursor.current = next;
        return;  // next node visit = next StepRoute
      }

      ++out.retries;
      ++retries_here;
      ++cursor.spent;
      if (trace != nullptr) {
        trace->path.push_back({current, next, next_kind,
                               prefix_remaining(next), /*dropped=*/true,
                               /*retried=*/false});
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
}

Result<RouteResult> PastryNetwork::Lookup(
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

}  // namespace peercache::pastry
