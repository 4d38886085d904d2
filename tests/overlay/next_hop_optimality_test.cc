// Differential test for the fault-free next-hop scans of all three
// overlays (Chord and Kademlia SelectNextHop, Pastry DecideNext), driven by
// the proptest harness in tests/test_util.h.
//
// The scans ask for liveness only of an entry that would become the new
// best (docs/ALGORITHMS.md, "The hop path"). The reference here is written
// the obvious way instead: it first keeps the live entries of the public
// table views (Fingers/Successors/Auxiliaries, BucketEntries, routing rows
// and leaf sets), then picks the best of them by the overlay's own rule,
// the first listed entry winning an exact tie. For every hop of a traced
// fault-free route, the chosen next hop and HopEntryKind must equal the
// reference's, and at the delivery node the reference must also deliver.
//
// Scenarios crash a random node set after the last stabilization, so the
// tables hold dead entries, and install random auxiliaries (dead ones
// included) plus one id that is also in the holder's core tables — the
// case where list order decides the reported HopEntryKind.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "chord/chord_network.h"
#include "common/bits.h"
#include "common/random.h"
#include "common/ring_id.h"
#include "common/status.h"
#include "common/trace.h"
#include "kademlia/kademlia_network.h"
#include "pastry/pastry_network.h"
#include "test_util.h"

namespace peercache {
namespace {

constexpr int kCases = 150;  // per overlay

struct Scenario {
  int bits = 16;
  std::vector<uint64_t> ids;
  std::vector<uint64_t> crashed;
  int aux_per_node = 0;
  bool aux_repeats_core = false;
  uint64_t net_seed = 1;
  uint64_t work_seed = 1;
  int queries = 1;
};

Scenario DrawScenario(proptest::Case& c) {
  Scenario s;
  s.bits = static_cast<int>(c.Range("bits", 8, 16));
  const uint64_t n = c.Range("n", 2, 64);
  s.net_seed = c.Range("net_seed", 1, uint64_t{1} << 32);
  s.work_seed = c.Range("work_seed", 1, uint64_t{1} << 32);
  s.aux_per_node = static_cast<int>(c.Range("aux", 0, 8));
  s.aux_repeats_core = c.Bool("aux_repeats_core");
  const uint64_t crashed = c.Range("crashed", 0, n / 2);
  s.queries = static_cast<int>(c.Range("queries", 1, 12));

  Rng rng(s.net_seed);
  s.ids = rng.SampleDistinct(uint64_t{1} << s.bits, static_cast<size_t>(n));
  for (uint64_t i : rng.SampleDistinct(n, static_cast<size_t>(crashed))) {
    s.crashed.push_back(s.ids[static_cast<size_t>(i)]);
  }
  return s;
}

/// Adds and stabilizes every node, installs the auxiliaries, then crashes
/// the crash set with no further stabilization.
template <typename Net>
std::string Populate(Net& net, const Scenario& s) {
  for (uint64_t id : s.ids) {
    if (Status st = net.AddNode(id); !st.ok()) return st.ToString();
  }
  net.StabilizeAll();
  Rng rng(SplitSeed(s.net_seed, 0x617578));  // "aux"
  for (uint64_t id : s.ids) {
    std::vector<uint64_t> aux;
    for (int a = 0; a < s.aux_per_node; ++a) {
      const uint64_t pick =
          s.ids[static_cast<size_t>(rng.UniformU64(s.ids.size()))];
      if (pick != id) aux.push_back(pick);
    }
    const std::vector<uint64_t> core = net.CoreNeighborIds(id);
    if (s.aux_repeats_core && !core.empty()) {
      aux.push_back(core[static_cast<size_t>(rng.UniformU64(core.size()))]);
    }
    if (Status st = net.SetAuxiliaries(id, aux); !st.ok()) {
      return st.ToString();
    }
  }
  for (uint64_t id : s.crashed) {
    if (Status st = net.RemoveNode(id); !st.ok()) return st.ToString();
  }
  return "";
}

/// A live table entry as the reference sees it, in scan order.
struct Entry {
  uint64_t id;
  HopEntryKind kind;
};

template <typename Net>
void AppendLive(const Net& net, std::span<const uint64_t> list,
                HopEntryKind kind, std::vector<Entry>& out) {
  for (uint64_t w : list) {
    if (net.IsAlive(w)) out.push_back({w, kind});
  }
}

/// The reference decision at one node. `next == current` means the node
/// answers the key itself; `final_hop` marks Pastry's R1 delivery hop,
/// whose target answers without a visit of its own.
struct Decision {
  uint64_t next = 0;
  HopEntryKind kind = HopEntryKind::kFinger;
  bool final_hop = false;
  bool enters_numeric = false;
};

/// First entry minimizing `score` among those with score < `bound`; the
/// current node (next == current) when there is none.
template <typename Score>
Decision BestBelow(uint64_t current, const std::vector<Entry>& entries,
                   uint64_t bound, const Score& score) {
  Decision d{current, HopEntryKind::kFinger};
  for (const Entry& e : entries) {
    if (e.id == current) continue;
    const uint64_t v = score(e.id);
    if (v < bound) {
      bound = v;
      d.next = e.id;
      d.kind = e.kind;
    }
  }
  return d;
}

Decision ChordReference(const chord::ChordNetwork& net, uint64_t current,
                        uint64_t key) {
  const chord::ChordNode& node = *net.GetNode(current);
  std::vector<Entry> live;
  AppendLive(net, net.Fingers(node), HopEntryKind::kFinger, live);
  AppendLive(net, net.Successors(node), HopEntryKind::kSuccessor, live);
  AppendLive(net, net.Auxiliaries(node), HopEntryKind::kAuxiliary, live);
  const IdSpace& space = net.space();
  std::vector<Entry> between;  // live entries in (current, key]
  for (const Entry& e : live) {
    if (space.InClockwiseRangeExclIncl(current, e.id, key)) {
      between.push_back(e);
    }
  }
  return BestBelow(current, between, space.ClockwiseDistance(current, key),
                   [&](uint64_t w) { return space.ClockwiseDistance(w, key); });
}

Decision KademliaReference(const kademlia::KademliaNetwork& net,
                           uint64_t current, uint64_t key) {
  const kademlia::KademliaNode& node = *net.GetNode(current);
  std::vector<Entry> live;
  AppendLive(net, net.BucketEntries(node), HopEntryKind::kBucket, live);
  AppendLive(net, net.Auxiliaries(node), HopEntryKind::kAuxiliary, live);
  Decision d = BestBelow(current, live, current ^ key,
                         [key](uint64_t w) { return w ^ key; });
  if (d.next == current) d.kind = HopEntryKind::kBucket;
  return d;
}

Decision PastryReference(const pastry::PastryNetwork& net, uint64_t current,
                         uint64_t key, bool numeric_mode) {
  const int bits = net.params().bits;
  const IdSpace& space = net.space();
  auto ring = [&space](uint64_t a, uint64_t b) {
    return std::min(space.ClockwiseDistance(a, b),
                    space.ClockwiseDistance(b, a));
  };
  Decision here{current, HopEntryKind::kRoutingRow};
  const int current_lcp = CommonPrefixLength(current, key, bits);
  if (current_lcp == bits) return here;

  const pastry::PastryNode& node = *net.GetNode(current);
  std::vector<Entry> succ, pred, live;
  AppendLive(net, net.LeafSucc(node), HopEntryKind::kLeafSet, succ);
  AppendLive(net, net.LeafPred(node), HopEntryKind::kLeafSet, pred);
  for (uint64_t w : net.RoutingRows(node)) {
    if (w != pastry::PastryNetwork::kNoEntry && net.IsAlive(w)) {
      live.push_back({w, HopEntryKind::kRoutingRow});
    }
  }
  live.insert(live.end(), succ.begin(), succ.end());
  live.insert(live.end(), pred.begin(), pred.end());
  AppendLive(net, net.Auxiliaries(node), HopEntryKind::kAuxiliary, live);

  // R1: inside the live leaf span, the ring-closest of {current} and the
  // live leaves answers (equal distance: smaller id).
  uint64_t cw_span = 0, ccw_span = 0;
  for (const Entry& e : succ) {
    cw_span = std::max(cw_span, space.ClockwiseDistance(current, e.id));
  }
  for (const Entry& e : pred) {
    ccw_span = std::max(ccw_span, space.ClockwiseDistance(e.id, current));
  }
  if (space.ClockwiseDistance(current, key) <= cw_span ||
      space.ClockwiseDistance(key, current) <= ccw_span) {
    uint64_t best = current;
    for (const std::vector<Entry>* side : {&succ, &pred}) {
      for (const Entry& e : *side) {
        if (std::make_pair(ring(e.id, key), e.id) <
            std::make_pair(ring(best, key), best)) {
          best = e.id;
        }
      }
    }
    if (best == current) return here;
    return {best, HopEntryKind::kLeafSet, /*final_hop=*/true};
  }

  // R2: the longest prefix beyond current's; ties by underlay distance.
  if (!numeric_mode) {
    const pastry::Coord& at = node.coord;
    auto proximity = [&](uint64_t w) {
      const pastry::Coord& c = net.GetNode(w)->coord;
      const double dx = at.x - c.x;
      const double dy = at.y - c.y;
      return std::sqrt(dx * dx + dy * dy);
    };
    const Entry* best = nullptr;
    for (const Entry& e : live) {
      if (e.id == current) continue;
      const int l = CommonPrefixLength(e.id, key, bits);
      if (l <= current_lcp) continue;
      if (best == nullptr) {
        best = &e;
        continue;
      }
      const int best_l = CommonPrefixLength(best->id, key, bits);
      if (l > best_l ||
          (l == best_l && proximity(e.id) < proximity(best->id))) {
        best = &e;
      }
    }
    if (best != nullptr) return {best->id, best->kind};
  }

  // R3: the ring-closest entry strictly closer than current; from here on
  // the route stays numeric.
  Decision d = BestBelow(current, live, ring(current, key),
                         [&](uint64_t w) { return ring(w, key); });
  if (d.next == current) d.kind = HopEntryKind::kRoutingRow;
  d.enters_numeric = true;
  return d;
}

std::string Where(const std::string& what, uint64_t origin, uint64_t key,
                  size_t hop) {
  return what + " (origin " + std::to_string(origin) + ", key " +
         std::to_string(key) + ", hop " + std::to_string(hop) + ")";
}

/// Walks one traced fault-free route against `reference(current,
/// numeric_mode)`.
template <typename Net, typename Reference>
std::string CheckRoute(const Net& net, uint64_t origin, uint64_t key,
                       const Reference& reference) {
  RouteTrace trace;
  auto route = overlay::Lookup(net, origin, key, &trace);
  if (!route.ok()) return Where("lookup failed", origin, key, 0);
  if (trace.path.size() > static_cast<size_t>(net.params().max_route_hops)) {
    return Where("route ran out of hops", origin, key, trace.path.size());
  }
  uint64_t at = origin;
  bool numeric_mode = false;
  for (size_t i = 0; i < trace.path.size(); ++i) {
    const HopRecord& hop = trace.path[i];
    if (hop.from != at) return Where("trace chain broken", origin, key, i);
    const Decision ref = reference(at, numeric_mode);
    if (ref.next == at) {
      return Where("forwarded to " + std::to_string(hop.to) +
                       " where the reference delivers",
                   origin, key, i);
    }
    if (ref.next != hop.to || ref.kind != hop.kind) {
      return Where("chose " + std::to_string(hop.to) + " (" +
                       HopEntryKindName(hop.kind) + "), reference " +
                       std::to_string(ref.next) + " (" +
                       HopEntryKindName(ref.kind) + ")",
                   origin, key, i);
    }
    numeric_mode = numeric_mode || ref.enters_numeric;
    at = hop.to;
    if (ref.final_hop) {
      if (i + 1 != trace.path.size()) {
        return Where("route continued past a final hop", origin, key, i);
      }
      return route.value().destination == at
                 ? ""
                 : Where("final hop target is not the destination", origin,
                         key, i);
    }
  }
  if (route.value().destination != at) {
    return Where("destination is not where the hops end", origin, key,
                 trace.path.size());
  }
  if (reference(at, numeric_mode).next != at) {
    return Where("delivered where the reference forwards", origin, key,
                 trace.path.size());
  }
  return "";
}

template <typename Net, typename Reference>
std::string CheckLookups(const Net& net, const Scenario& s,
                         const Reference& reference) {
  const std::vector<uint64_t> live = net.LiveNodeIds();
  Rng rng(s.work_seed);
  for (int q = 0; q < s.queries; ++q) {
    const uint64_t origin =
        live[static_cast<size_t>(rng.UniformU64(live.size()))];
    // Every third key is a node id (live or crashed): exact hits and keys
    // owned by a dead node.
    const uint64_t key =
        q % 3 == 2 ? s.ids[static_cast<size_t>(rng.UniformU64(s.ids.size()))]
                   : rng.UniformU64(uint64_t{1} << s.bits);
    auto at_node = [&](uint64_t at, bool numeric) {
      return reference(at, key, numeric);
    };
    if (std::string err = CheckRoute(net, origin, key, at_node);
        !err.empty()) {
      return err;
    }
  }
  return "";
}

template <typename Net, typename MakeNet, typename Reference>
void RunDifferential(uint64_t seed, const MakeNet& make_net,
                     const Reference& reference) {
  auto outcome = proptest::RunProperty(seed, kCases, [&](proptest::Case& c) {
    const Scenario s = DrawScenario(c);
    Net net = make_net(s);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckLookups(net, s, [&](uint64_t at, uint64_t key, bool numeric) {
      return reference(net, at, key, numeric);
    });
  });
  EXPECT_TRUE(outcome.ok) << "case " << outcome.failing_case << ": "
                          << outcome.message
                          << "\n  counterexample: " << outcome.counterexample;
}

TEST(NextHopOptimality, ChordMatchesLivenessFirstReference) {
  RunDifferential<chord::ChordNetwork>(
      0xC40D,
      [](const Scenario& s) {
        chord::ChordParams params;
        params.bits = s.bits;
        params.successor_list_size = 4;
        return chord::ChordNetwork(params);
      },
      [](const chord::ChordNetwork& net, uint64_t at, uint64_t key, bool) {
        return ChordReference(net, at, key);
      });
}

TEST(NextHopOptimality, PastryMatchesLivenessFirstReference) {
  RunDifferential<pastry::PastryNetwork>(
      0xBA57,
      [](const Scenario& s) {
        pastry::PastryParams params;
        params.bits = s.bits;
        params.leaf_set_half = 2;
        return pastry::PastryNetwork(params, s.net_seed);
      },
      [](const pastry::PastryNetwork& net, uint64_t at, uint64_t key,
         bool numeric) { return PastryReference(net, at, key, numeric); });
}

TEST(NextHopOptimality, KademliaMatchesLivenessFirstReference) {
  RunDifferential<kademlia::KademliaNetwork>(
      0x4AD1,
      [](const Scenario& s) {
        kademlia::KademliaParams params;
        params.bits = s.bits;
        params.bucket_size = 3;
        return kademlia::KademliaNetwork(params);
      },
      [](const kademlia::KademliaNetwork& net, uint64_t at, uint64_t key,
         bool) { return KademliaReference(net, at, key); });
}

}  // namespace
}  // namespace peercache
