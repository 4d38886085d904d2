// Compile-and-smoke test for the umbrella header: every public API must be
// reachable through a single include, and a minimal end-to-end flow must
// work using only what it exposes.

#include "peercache.h"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, EndToEndThroughSingleInclude) {
  using namespace peercache;

  chord::ChordParams params;
  params.bits = 16;
  chord::ChordNetwork net(params);
  Rng rng(1);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 64);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();

  // Observe a skewed stream at one node.
  ZipfDistribution zipf(ids.size(), 1.2);
  auxsel::FrequencyTable freq;
  for (int q = 0; q < 500; ++q) {
    freq.Record(ids[zipf.Sample(rng) - 1]);
  }

  auxsel::SelectionInput input;
  input.bits = params.bits;
  input.self_id = ids[0];
  input.k = 6;
  input.core_ids = net.CoreNeighborIds(ids[0]);
  input.peers = freq.Snapshot(ids[0]);

  auto sel = auxsel::SelectChordFast(input);
  ASSERT_TRUE(sel.ok()) << sel.status();
  EXPECT_LE(sel->chosen.size(), 6u);
  ASSERT_TRUE(net.SetAuxiliaries(ids[0], sel->chosen).ok());

  auto route = overlay::Lookup(net, ids[0], ids[5]);
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE(route->success);
}

TEST(Umbrella, PastryAndExperimentsReachable) {
  using namespace peercache;
  pastry::PastryParams params;
  params.bits = 12;
  pastry::PastryNetwork net(params, 3);
  ASSERT_TRUE(net.AddNode(7).ok());

  experiments::ExperimentConfig cfg;
  EXPECT_EQ(cfg.bits, 32);

  itemcache::ItemCache cache(4, 5.0);
  cache.Store(1, 0, 0.0);
  EXPECT_TRUE(cache.Lookup(1, 1.0).hit);

  sim::EventQueue eq;
  int fired = 0;
  eq.ScheduleAt(1.0, [&] { ++fired; });
  eq.RunUntil(2.0);
  EXPECT_EQ(fired, 1);
}

}  // namespace
