// Parameterized routing invariants across both overlays:
//   * stable overlays answer every lookup at the responsible node,
//   * hop counts respect the O(log n)-ish steady-state bound,
//   * installing auxiliaries never makes any single lookup longer (Chord's
//     distance-greedy policy) and never breaks delivery (both overlays),
//   * routes terminate within the hop cap even with many dead entries.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "chord/chord_network.h"
#include "common/bits.h"
#include "common/random.h"
#include "pastry/pastry_network.h"

namespace peercache {
namespace {

struct OverlayCell {
  int bits;
  int n_nodes;
  int aux_per_node;  // random auxiliaries installed everywhere
};

class OverlaySweep : public ::testing::TestWithParam<OverlayCell> {
 protected:
  std::vector<uint64_t> MakeIds(Rng& rng) {
    const OverlayCell& c = GetParam();
    const uint64_t space =
        c.bits == 64 ? ~uint64_t{0} : (uint64_t{1} << c.bits);
    return rng.SampleDistinct(space, static_cast<size_t>(c.n_nodes));
  }
};

TEST_P(OverlaySweep, ChordStableLookupsExactAndBounded) {
  const OverlayCell& c = GetParam();
  Rng rng(101 + static_cast<uint64_t>(c.n_nodes));
  auto ids = MakeIds(rng);
  chord::ChordParams params;
  params.bits = c.bits;
  chord::ChordNetwork net(params);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  // Optional random auxiliaries on every node.
  if (c.aux_per_node > 0) {
    for (uint64_t id : ids) {
      std::vector<uint64_t> aux;
      for (int a = 0; a < c.aux_per_node; ++a) {
        uint64_t pick = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
        if (pick != id) aux.push_back(pick);
      }
      ASSERT_TRUE(net.SetAuxiliaries(id, aux).ok());
    }
  }
  for (int t = 0; t < 300; ++t) {
    const uint64_t key = rng.NextU64() & LowBitMask(c.bits);
    const uint64_t origin =
        ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    auto route = overlay::Lookup(net, origin, key);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(route->success);
    EXPECT_EQ(route->destination, net.ResponsibleNode(key).value());
    EXPECT_LE(route->hops, c.bits);
    EXPECT_EQ(route->path.size(), static_cast<size_t>(route->hops));
  }
}

TEST_P(OverlaySweep, PastryStableLookupsExactAndBounded) {
  const OverlayCell& c = GetParam();
  Rng rng(202 + static_cast<uint64_t>(c.n_nodes));
  auto ids = MakeIds(rng);
  pastry::PastryParams params;
  params.bits = c.bits;
  pastry::PastryNetwork net(params, 5);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  if (c.aux_per_node > 0) {
    for (uint64_t id : ids) {
      std::vector<uint64_t> aux;
      for (int a = 0; a < c.aux_per_node; ++a) {
        uint64_t pick = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
        if (pick != id) aux.push_back(pick);
      }
      ASSERT_TRUE(net.SetAuxiliaries(id, aux).ok());
    }
  }
  for (int t = 0; t < 300; ++t) {
    const uint64_t key = rng.NextU64() & LowBitMask(c.bits);
    const uint64_t origin =
        ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    auto route = overlay::Lookup(net, origin, key);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(route->success);
    EXPECT_EQ(route->destination, net.ResponsibleNode(key).value());
    EXPECT_LE(route->hops, c.bits + 2);
  }
}

TEST_P(OverlaySweep, ChordAuxiliariesHelpOnAggregate) {
  // Greedy routing is not per-query monotone in the table contents (a
  // longer first jump can land at a node with worse onward fingers), but a
  // superset of entries must help on aggregate, and the first hop's
  // remaining distance can never get worse.
  const OverlayCell& c = GetParam();
  Rng rng(303 + static_cast<uint64_t>(c.bits));
  auto ids = MakeIds(rng);
  chord::ChordParams params;
  params.bits = c.bits;
  chord::ChordNetwork net(params);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  const uint64_t origin = ids[0];
  std::vector<uint64_t> keys;
  int64_t base_total = 0;
  for (int t = 0; t < 300; ++t) {
    keys.push_back(rng.NextU64() & LowBitMask(c.bits));
    base_total += overlay::Lookup(net, origin, keys.back())->hops;
  }
  std::vector<uint64_t> aux;
  for (size_t i = 1; i < ids.size() && aux.size() < 12; i += 3) {
    aux.push_back(ids[i]);
  }
  ASSERT_TRUE(net.SetAuxiliaries(origin, aux).ok());
  int64_t aux_total = 0;
  for (uint64_t key : keys) {
    auto route = overlay::Lookup(net, origin, key);
    EXPECT_TRUE(route->success);
    aux_total += route->hops;
  }
  EXPECT_LE(aux_total, base_total);
}

TEST_P(OverlaySweep, LookupsTerminateUnderMassCrash) {
  const OverlayCell& c = GetParam();
  if (c.n_nodes < 8) GTEST_SKIP() << "needs enough nodes to crash some";
  Rng rng(404);
  auto ids = MakeIds(rng);
  chord::ChordParams params;
  params.bits = c.bits;
  chord::ChordNetwork net(params);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  // Crash half the overlay without telling anyone.
  for (size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(net.RemoveNode(ids[i]).ok());
  }
  for (int t = 0; t < 200; ++t) {
    const uint64_t key = rng.NextU64() & LowBitMask(c.bits);
    uint64_t origin;
    do {
      origin = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    } while (!net.IsAlive(origin));
    auto route = overlay::Lookup(net, origin, key);
    ASSERT_TRUE(route.ok());
    EXPECT_LT(route->hops, params.max_route_hops) << "route must terminate";
    EXPECT_TRUE(net.IsAlive(route->destination));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OverlaySweep,
    ::testing::Values(OverlayCell{8, 4, 0}, OverlayCell{10, 16, 2},
                      OverlayCell{16, 64, 0}, OverlayCell{16, 64, 8},
                      OverlayCell{20, 150, 5}, OverlayCell{32, 200, 10},
                      OverlayCell{64, 100, 6}),
    [](const ::testing::TestParamInfo<OverlayCell>& info) {
      return "bits" + std::to_string(info.param.bits) + "_n" +
             std::to_string(info.param.n_nodes) + "_aux" +
             std::to_string(info.param.aux_per_node);
    });

}  // namespace
}  // namespace peercache
