// The max_route_hops overflow edge on every backend and every way a lookup
// is driven: the direct call fault-free, the direct call under an enabled
// fault::FaultPlan, the batched engine, and the actor bus (fault-free and
// faulted). Each budgeted route is checked against the same lookup routed
// with an unlimited budget over identical tables:
//
//   * a budget the route fits exactly (B = H hops) changes nothing;
//   * a budget it overruns stops the route after its (B+1)-th forward with
//     hops == B at the node that forward reached, success == false.
//
// The two policies differ only in when the failure fires and what it is
// called: the fault-free route fails right after the overrunning hop and
// leaves budget_exhausted clear; the resilient route fails at the next
// visit and sets budget_exhausted.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "chord/chord_network.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/route_result.h"
#include "common/thread_pool.h"
#include "experiments/batch_engine.h"
#include "kademlia/kademlia_network.h"
#include "net/actor_node.h"
#include "net/bus.h"
#include "net/wire.h"
#include "pastry/pastry_network.h"

namespace peercache::overlay {
namespace {

constexpr int kBits = 16;
constexpr size_t kNodes = 64;
constexpr uint64_t kSeed = 7;

chord::ChordNetwork Make(chord::ChordParams params) {
  return chord::ChordNetwork(params);
}
pastry::PastryNetwork Make(pastry::PastryParams params) {
  return pastry::PastryNetwork(params, kSeed);
}
kademlia::KademliaNetwork Make(kademlia::KademliaParams params) {
  return kademlia::KademliaNetwork(params);
}

/// Builds a stabilized overlay of kNodes nodes with the given hop budget;
/// the same ids (and, for Pastry, the same coordinate seed) every call, so
/// overlays differing only in max_route_hops have identical tables.
template <typename Params>
auto BuildOverlay(int max_route_hops) {
  Params params;
  params.bits = kBits;
  params.max_route_hops = max_route_hops;
  auto net = Make(params);
  Rng rng(kSeed);
  EXPECT_TRUE(net.BulkAdd(rng.SampleDistinct(uint64_t{1} << kBits, kNodes))
                  .ok());
  net.StabilizeAll();
  return net;
}

/// A fault plan that is enabled (routes take the resilient policy) but can
/// never fire: the stale gate is consulted only for dead entries and every
/// node is alive.
fault::FaultPlan InertEnabledPlan() {
  fault::FaultConfig config;
  config.stale_prob = 1.0;
  config.seed = kSeed;
  return fault::FaultPlan(config);
}

/// The reference route and the budget under test.
struct BudgetCase {
  uint64_t origin = 0;
  uint64_t key = 0;
  RouteResult unlimited;  // the same lookup with the default budget
  int budget = 0;
};

/// What a budgeted route must report: the unlimited route when it fits,
/// otherwise the node reached by the (budget+1)-th forward, hops == budget.
struct Expected {
  uint64_t destination;
  int hops;
  bool success;
  bool overflow;
};

Expected ExpectedFor(const BudgetCase& c) {
  const RouteResult& u = c.unlimited;
  if (c.budget >= u.hops) return {u.destination, u.hops, u.success, false};
  const size_t reached = static_cast<size_t>(c.budget) + 1;
  const uint64_t at = reached < u.path.size() ? u.path[reached]
                                              : u.destination;
  return {at, c.budget, false, true};
}

/// Lookups whose unlimited route takes at least two hops, each paired with
/// the budgets at the overflow edge: 0, H - 2 (overruns before the final
/// hop, whatever kind it is) and H (fits exactly).
template <typename Net>
std::vector<BudgetCase> Cases(const Net& unlimited) {
  std::vector<BudgetCase> cases;
  const std::vector<uint64_t> live = unlimited.LiveNodeIds();
  Rng rng(kSeed + 1);
  for (int tries = 0; tries < 400 && cases.size() < 24; ++tries) {
    BudgetCase c;
    c.origin = live[rng.UniformU64(live.size())];
    c.key = rng.UniformU64(uint64_t{1} << kBits);
    EXPECT_TRUE(unlimited.LookupInto(c.origin, c.key, c.unlimited).ok());
    if (c.unlimited.hops < 2) continue;
    for (int budget : {0, c.unlimited.hops - 2, c.unlimited.hops}) {
      c.budget = budget;
      cases.push_back(c);
    }
  }
  EXPECT_GE(cases.size(), 12u);
  return cases;
}

std::string Describe(const BudgetCase& c) {
  return "origin=" + std::to_string(c.origin) +
         " key=" + std::to_string(c.key) +
         " unlimited_hops=" + std::to_string(c.unlimited.hops) +
         " budget=" + std::to_string(c.budget);
}

/// Routes `cases` through the actor bus and returns the unpacked DONEs.
template <typename Net>
std::vector<RouteResult> ViaBus(const Net& net,
                                const std::vector<BudgetCase>& cases,
                                const fault::FaultPlan* faults) {
  typename net::ActorHost<Net>::Config config;
  config.faults = faults;
  net::ActorHost<Net> host(net, config);
  ThreadPool pool(1);
  net::MessageBus bus(net::BusConfig{}, &pool);
  for (size_t i = 0; i < cases.size(); ++i) {
    bus.Post(net::kClientAddress, cases[i].origin, 0.0,
             host.MakeLookupReq(i, cases[i].origin, cases[i].key));
  }
  std::vector<RouteResult> results(cases.size());
  bus.Run([&](const net::Envelope& env, std::vector<net::Outbound>& out) {
    if (env.dst != net::kClientAddress) {
      host.HandleMessage(env, out);
      return;
    }
    auto decoded = net::Decode(std::span<const uint8_t>(env.payload));
    ASSERT_TRUE(decoded.ok());
    const auto& done = std::get<net::LookupDone>(decoded.value());
    ASSERT_LT(done.lookup_id, results.size());
    EXPECT_TRUE(net::UnpackDone(done, results[done.lookup_id], nullptr).ok());
  });
  return results;
}

template <typename Params>
void CheckHopBudget() {
  using Net = decltype(Make(Params{}));
  const Net unlimited = BuildOverlay<Params>(Params{}.max_route_hops);
  const std::vector<BudgetCase> cases = Cases(unlimited);
  const fault::FaultPlan faults = InertEnabledPlan();
  ASSERT_TRUE(faults.enabled());

  for (const BudgetCase& c : cases) {
    SCOPED_TRACE(Describe(c));
    const Net net = BuildOverlay<Params>(c.budget);
    const Expected want = ExpectedFor(c);

    RouteResult direct;
    ASSERT_TRUE(net.LookupInto(c.origin, c.key, direct).ok());
    EXPECT_EQ(direct.hops, want.hops);
    EXPECT_EQ(direct.destination, want.destination);
    EXPECT_EQ(direct.success, want.success);
    EXPECT_FALSE(direct.budget_exhausted);  // fault-free: never tagged

    RouteResult resilient;
    ASSERT_TRUE(
        net.LookupInto(c.origin, c.key, resilient, nullptr, &faults).ok());
    EXPECT_EQ(resilient.hops, want.hops);
    EXPECT_EQ(resilient.destination, want.destination);
    EXPECT_EQ(resilient.success, want.success);
    EXPECT_EQ(resilient.budget_exhausted, want.overflow);
    EXPECT_EQ(resilient.retries, 0);

    const experiments::LookupJob job{c.origin, c.key};
    experiments::BatchLookupResult batched;
    experiments::RunBatchedLookups(net,
                                   std::span<const experiments::LookupJob>(
                                       &job, 1),
                                   4, std::span(&batched, 1));
    EXPECT_TRUE(batched.ok);
    EXPECT_EQ(batched.hops, want.hops);
    EXPECT_EQ(batched.destination, want.destination);
    EXPECT_EQ(batched.success, want.success);

    for (const fault::FaultPlan* plan : {static_cast<const fault::FaultPlan*>(
                                             nullptr),
                                         &faults}) {
      const RouteResult bus = ViaBus(net, {c}, plan)[0];
      EXPECT_EQ(bus.hops, want.hops);
      EXPECT_EQ(bus.destination, want.destination);
      EXPECT_EQ(bus.success, want.success);
      EXPECT_EQ(bus.budget_exhausted, plan != nullptr && want.overflow);
    }
  }
}

TEST(HopBudget, ChordOverflowEdge) { CheckHopBudget<chord::ChordParams>(); }

TEST(HopBudget, PastryOverflowEdge) {
  CheckHopBudget<pastry::PastryParams>();
}

TEST(HopBudget, KademliaOverflowEdge) {
  CheckHopBudget<kademlia::KademliaParams>();
}

}  // namespace
}  // namespace peercache::overlay
