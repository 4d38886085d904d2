// Quickstart: build a Chord overlay, observe a skewed query stream, install
// the paper's optimal auxiliary neighbors on one node, and watch its average
// lookup cost drop.
//
//   $ ./quickstart
//
// Walks through the core public API: ChordNetwork (overlay + routing),
// FrequencyTable (access-frequency observation), SelectChordFast (the
// O(n(b+k)log n) optimal selector), and SelectChordOblivious (the baseline).

#include <cstdio>

#include "auxsel/chord_fast.h"
#include "auxsel/oblivious.h"
#include "chord/chord_network.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/zipf.h"

using namespace peercache;

namespace {

/// Measures the average hops for `queries` lookups from `origin`, drawn
/// from the given popularity distribution over destination keys.
double MeasureAvgHops(const chord::ChordNetwork& net, uint64_t origin,
                      const std::vector<uint64_t>& keys) {
  OnlineStats hops;
  for (uint64_t key : keys) {
    auto route = overlay::Lookup(net, origin, key);
    if (route.ok() && route->success) hops.Add(route->hops);
  }
  return hops.mean();
}

}  // namespace

int main() {
  // 1. Build a 512-node Chord overlay with 32-bit ids.
  chord::ChordParams params;
  params.bits = 32;
  chord::ChordNetwork net(params);
  Rng rng(42);
  std::vector<uint64_t> ids = rng.SampleDistinct(uint64_t{1} << 32, 512);
  for (uint64_t id : ids) {
    if (auto s = net.AddNode(id); !s.ok()) {
      std::fprintf(stderr, "join failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  net.StabilizeAll();
  std::printf("built a Chord ring with %zu nodes\n", net.live_count());

  // 2. One node watches its own query stream: keys are zipf-popular.
  const uint64_t me = ids[0];
  ZipfDistribution zipf(ids.size(), 1.2);
  std::vector<uint64_t> warmup_keys, measure_keys;
  for (int q = 0; q < 4000; ++q) {
    // Popularity rank r maps to the key owned by node ids[r-1].
    warmup_keys.push_back(ids[zipf.Sample(rng) - 1]);
    measure_keys.push_back(ids[zipf.Sample(rng) - 1]);
  }
  auxsel::FrequencyTable& freq = net.GetNode(me)->frequencies;
  for (uint64_t key : warmup_keys) {
    auto route = overlay::Lookup(net, me, key);
    if (route.ok() && route->success) freq.Record(route->destination);
  }
  std::printf("observed %llu queries to %zu distinct peers\n",
              static_cast<unsigned long long>(freq.total()),
              freq.distinct());

  const double base = MeasureAvgHops(net, me, measure_keys);
  std::printf("core neighbors only:        %.3f avg hops\n", base);

  // 3. Frequency-oblivious baseline: k random per-slice pointers.
  auxsel::SelectionInput input;
  input.bits = params.bits;
  input.self_id = me;
  input.k = 9;  // log2(512)
  input.core_ids = net.CoreNeighborIds(me);
  for (uint64_t id : ids) {
    if (id != me) input.peers.push_back({id, 0.0, -1});
  }
  auto oblivious = auxsel::SelectChordOblivious(input, rng);
  if (!oblivious.ok()) return 1;
  (void)net.SetAuxiliaries(me, oblivious->chosen);
  const double obl = MeasureAvgHops(net, me, measure_keys);
  std::printf("+ %zu oblivious auxiliaries: %.3f avg hops\n",
              oblivious->chosen.size(), obl);

  // 4. The paper's optimal selection from the observed frequencies.
  input.peers = freq.Snapshot(me);
  auto optimal = auxsel::SelectChordFast(input);
  if (!optimal.ok()) return 1;
  (void)net.SetAuxiliaries(me, optimal->chosen);
  const double opt = MeasureAvgHops(net, me, measure_keys);
  std::printf("+ %zu optimal auxiliaries:   %.3f avg hops\n",
              optimal->chosen.size(), opt);

  std::printf(
      "\nimprovement over oblivious: %.1f%% (paper Sec. VI reports up to "
      "57%% at n=1024)\n",
      100.0 * (obl - opt) / obl);
  std::printf("predicted Eq.1 cost of the optimal set: %.1f\n",
              optimal->cost);
  return 0;
}
