// Focused tests for the Pastry leaf-set machinery: side separation, the R1
// coverage-arc delivery rule, and behaviour in sparse rings where leaf arcs
// wrap far around the id space.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "pastry/pastry_network.h"

namespace peercache::pastry {
namespace {

TEST(PastryLeafSet, SidesAreRingNeighborsInOrder) {
  PastryParams params;
  params.bits = 8;
  params.leaf_set_half = 2;
  PastryNetwork net(params, 1);
  for (uint64_t id : {10u, 50u, 90u, 130u, 170u, 210u}) {
    ASSERT_TRUE(net.AddNode(id).ok());
  }
  net.StabilizeAll();
  const PastryNode* node = net.GetNode(90);
  ASSERT_NE(node, nullptr);
  const auto succ = net.LeafSucc(*node);
  const auto pred = net.LeafPred(*node);
  EXPECT_EQ(std::vector<uint64_t>(succ.begin(), succ.end()),
            (std::vector<uint64_t>{130, 170}));
  EXPECT_EQ(std::vector<uint64_t>(pred.begin(), pred.end()),
            (std::vector<uint64_t>{50, 10}));
  // Union view contains both sides exactly once.
  std::set<uint64_t> all(succ.begin(), succ.end());
  all.insert(pred.begin(), pred.end());
  EXPECT_EQ(all, (std::set<uint64_t>{10, 50, 130, 170}));
}

TEST(PastryLeafSet, WrapsAroundZero) {
  PastryParams params;
  params.bits = 8;
  params.leaf_set_half = 2;
  PastryNetwork net(params, 1);
  for (uint64_t id : {5u, 100u, 250u}) {
    ASSERT_TRUE(net.AddNode(id).ok());
  }
  net.StabilizeAll();
  const PastryNode* node = net.GetNode(250);
  ASSERT_NE(node, nullptr);
  const auto succ = net.LeafSucc(*node);
  EXPECT_EQ(std::vector<uint64_t>(succ.begin(), succ.end()),
            (std::vector<uint64_t>{5, 100}));
  // The pred side stops once the sides meet (only 2 other nodes exist).
  EXPECT_TRUE(net.LeafPred(*node).empty());
}

TEST(PastryLeafSet, SmallRingEveryoneKnowsEveryone) {
  PastryParams params;
  params.bits = 16;
  params.leaf_set_half = 8;
  PastryNetwork net(params, 2);
  Rng rng(12);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 6);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  for (uint64_t id : ids) {
    const PastryNode* node = net.GetNode(id);
    const auto succ = net.LeafSucc(*node);
    const auto pred = net.LeafPred(*node);
    std::set<uint64_t> known(succ.begin(), succ.end());
    known.insert(pred.begin(), pred.end());
    EXPECT_EQ(known.size(), ids.size() - 1)
        << "node " << id << " must know all 5 others via its leaf set";
  }
  // With complete knowledge every lookup is exact, and short: keys inside
  // the leaf span deliver in one hop; keys in the arc just behind the
  // origin (outside its successor-side span) may take one extra hop.
  for (int t = 0; t < 200; ++t) {
    uint64_t key = rng.UniformU64(uint64_t{1} << 16);
    uint64_t origin = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    auto route = overlay::Lookup(net, origin, key);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(route->success);
    EXPECT_LE(route->hops, 2);
  }
}

TEST(PastryLeafSet, SparseRingsDeliverExactly) {
  // The regression behind the sticky numeric mode + side-separated spans:
  // very sparse rings (few nodes, wide id space) must still deliver every
  // lookup at the numerically closest node.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    PastryParams params;
    params.bits = 20;
    PastryNetwork net(params, seed);
    Rng rng(seed * 131);
    auto ids = rng.SampleDistinct(uint64_t{1} << 20, 12);
    for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
    net.StabilizeAll();
    for (int t = 0; t < 200; ++t) {
      uint64_t key = rng.UniformU64(uint64_t{1} << 20);
      uint64_t origin = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
      auto route = overlay::Lookup(net, origin, key);
      ASSERT_TRUE(route.ok());
      EXPECT_TRUE(route->success)
          << "seed " << seed << " key " << key << " from " << origin;
    }
  }
}

TEST(PastryLeafSet, StabilizeAfterChurnRebuildsSides) {
  PastryParams params;
  params.bits = 8;
  params.leaf_set_half = 2;
  PastryNetwork net(params, 1);
  for (uint64_t id : {10u, 50u, 90u, 130u, 170u, 210u}) {
    ASSERT_TRUE(net.AddNode(id).ok());
  }
  net.StabilizeAll();
  ASSERT_TRUE(net.RemoveNode(130).ok());
  ASSERT_TRUE(net.StabilizeNode(90).ok());
  const PastryNode* node = net.GetNode(90);
  const auto succ = net.LeafSucc(*node);
  EXPECT_EQ(std::vector<uint64_t>(succ.begin(), succ.end()),
            (std::vector<uint64_t>{170, 210}));
}

}  // namespace
}  // namespace peercache::pastry
