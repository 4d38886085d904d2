#include "itemcache/strategy_compare.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "auxsel/chord_fast.h"
#include "auxsel/selection_types.h"
#include "chord/chord_network.h"
#include "common/random.h"
#include "common/zipf.h"
#include "itemcache/item_cache.h"
#include "workload/workload.h"

namespace peercache::itemcache {

namespace {

using chord::ChordNetwork;
using chord::ChordParams;

/// Replica placement for the hottest items: the owner plus the next
/// `replicas - 1` nodes counterclockwise (so queries routing clockwise
/// toward the key hit a replica before the owner).
class ReplicaIndex {
 public:
  ReplicaIndex(const ChordNetwork& net, const workload::ItemSpace& items,
               const std::vector<size_t>& hot_items, int replicas) {
    std::vector<uint64_t> ring = net.LiveNodeIds();  // sorted
    for (size_t item : hot_items) {
      auto owner = net.ResponsibleNode(items.ItemKey(item));
      if (!owner.ok()) continue;
      auto it = std::lower_bound(ring.begin(), ring.end(), owner.value());
      size_t idx = static_cast<size_t>(it - ring.begin());
      for (int r = 0; r < replicas; ++r) {
        size_t pos = (idx + ring.size() - static_cast<size_t>(r)) %
                     ring.size();
        holders_[item].insert(ring[pos]);
        per_node_items_[ring[pos]] += 1;
      }
    }
  }

  bool Holds(uint64_t node, size_t item) const {
    auto it = holders_.find(item);
    return it != holders_.end() && it->second.count(node) > 0;
  }

  size_t ReplicaCount(size_t item) const {
    auto it = holders_.find(item);
    return it == holders_.end() ? 0 : it->second.size();
  }

  double AvgExtraStatePerNode(size_t n_nodes) const {
    double total = 0;
    for (const auto& [node, count] : per_node_items_) total += count;
    return n_nodes == 0 ? 0 : total / static_cast<double>(n_nodes);
  }

 private:
  std::unordered_map<size_t, std::unordered_set<uint64_t>> holders_;
  std::unordered_map<uint64_t, int> per_node_items_;
};

/// Hops until the query reaches any node holding the answer: walks the
/// route and stops at the first replica holder.
int HopsToReplica(const ChordNetwork& net, const ReplicaIndex& replicas,
                  uint64_t origin, uint64_t key, size_t item, bool* found) {
  auto route = overlay::Lookup(net, origin, key);
  *found = false;
  if (!route.ok() || !route->success) return 0;
  *found = true;
  int hop = 0;
  for (uint64_t node : route->path) {
    if (replicas.Holds(node, item)) return hop;
    ++hop;
  }
  return route->hops;
}

}  // namespace

Result<StrategyComparison> CompareStrategies(
    const StrategyCompareConfig& config) {
  ChordParams params;
  params.bits = config.bits;
  ChordNetwork net(params);
  Rng rng(MixHash64(config.seed ^ 0x57a7));
  const uint64_t space =
      config.bits == 64 ? ~uint64_t{0} : (uint64_t{1} << config.bits);
  std::vector<uint64_t> nodes =
      rng.SampleDistinct(space, static_cast<size_t>(config.n_nodes));
  for (uint64_t id : nodes) {
    if (Status s = net.AddNode(id); !s.ok()) return s;
  }
  net.StabilizeAll();

  workload::ItemSpace items(config.bits, config.n_items,
                            MixHash64(config.seed ^ 0x17e8));
  ZipfDistribution zipf(config.n_items, config.alpha);
  AuthoritativeItems truth(config.n_items);

  // Peer caching setup: learn frequencies, install optimal auxiliaries.
  {
    Rng warm(MixHash64(config.seed ^ 0x3aa3));
    for (int q = 0; q < 40 * config.n_nodes; ++q) {
      uint64_t origin =
          nodes[static_cast<size_t>(warm.UniformU64(nodes.size()))];
      size_t item = zipf.Sample(warm) - 1;
      auto owner = net.ResponsibleNode(items.ItemKey(item));
      if (owner.ok() && owner.value() != origin) {
        net.GetNode(origin)->frequencies.Record(owner.value());
      }
    }
  }
  std::unordered_map<uint64_t, std::vector<uint64_t>> optimal_aux;
  for (uint64_t id : nodes) {
    auxsel::SelectionInput input;
    input.bits = config.bits;
    input.self_id = id;
    input.k = config.aux_k;
    input.core_ids = net.CoreNeighborIds(id);
    input.peers = net.GetNode(id)->frequencies.Snapshot(id);
    auto sel = auxsel::SelectChordFast(input);
    if (sel.ok()) optimal_aux[id] = sel->chosen;
  }

  // Replication setup: the globally hottest items.
  std::vector<size_t> hot_items;
  for (size_t r = 1; r <= config.replicated_items && r <= config.n_items;
       ++r) {
    hot_items.push_back(r - 1);  // rank r item index under the identity list
  }
  ReplicaIndex replicas(net, items, hot_items, config.replicas_per_hot_item);

  // Item caches.
  std::unordered_map<uint64_t, ItemCache> caches;
  for (uint64_t id : nodes) {
    caches.emplace(id, ItemCache(config.cache_capacity, config.cache_ttl_s));
  }

  StrategyComparison out;
  uint64_t base_hops = 0, base_lookups = 0;
  uint64_t ic_hops = 0, ic_answers = 0, ic_stale = 0;
  uint64_t rep_hops = 0, rep_lookups = 0;
  uint64_t pc_hops = 0, pc_lookups = 0;
  uint64_t updates = 0;

  Rng query_rng(MixHash64(config.seed ^ 0x9e11));
  Rng update_rng(MixHash64(config.seed ^ 0x1e57));
  double now = 0;
  const double update_rate =
      static_cast<double>(config.n_items) / config.item_update_period_s;
  double next_update = update_rng.Exponential(1.0 / update_rate);

  while (now < config.duration_s) {
    now += query_rng.Exponential(1.0 / config.query_rate);
    while (next_update < now) {
      truth.Update(static_cast<size_t>(
          update_rng.UniformU64(config.n_items)));
      ++updates;
      next_update += update_rng.Exponential(1.0 / update_rate);
    }

    const uint64_t origin =
        nodes[static_cast<size_t>(query_rng.UniformU64(nodes.size()))];
    const size_t item = zipf.Sample(query_rng) - 1;
    const uint64_t key = items.ItemKey(item);

    // Baseline: plain routing (auxiliaries cleared).
    (void)net.SetAuxiliaries(origin, {});
    if (auto route = overlay::Lookup(net, origin, key);
        route.ok() && route->success) {
      base_hops += static_cast<uint64_t>(route->hops);
      ++base_lookups;
    }

    // Item caching: probe local cache, else route and fill.
    {
      ItemCache& cache = caches.at(origin);
      auto probe = cache.Lookup(key, now);
      if (probe.hit) {
        ++ic_answers;
        if (probe.version != truth.Version(item)) ++ic_stale;
      } else if (auto route = overlay::Lookup(net, origin, key);
                 route.ok() && route->success) {
        ic_hops += static_cast<uint64_t>(route->hops);
        ++ic_answers;
        cache.Store(key, truth.Version(item), now);
      }
    }

    // Replication: route, stop early at any replica holder.
    {
      bool found = false;
      int hops = HopsToReplica(net, replicas, origin, key, item, &found);
      if (found) {
        rep_hops += static_cast<uint64_t>(hops);
        ++rep_lookups;
      }
    }

    // Peer caching: route with the optimal auxiliaries installed.
    {
      auto it = optimal_aux.find(origin);
      (void)net.SetAuxiliaries(origin,
                               it == optimal_aux.end() ? std::vector<uint64_t>{}
                                                       : it->second);
      if (auto route = overlay::Lookup(net, origin, key);
          route.ok() && route->success) {
        pc_hops += static_cast<uint64_t>(route->hops);
        ++pc_lookups;
      }
    }
  }

  auto avg = [](uint64_t total, uint64_t count) {
    return count == 0 ? 0.0
                      : static_cast<double>(total) / static_cast<double>(count);
  };

  out.baseline.avg_hops = avg(base_hops, base_lookups);

  out.item_cache.avg_hops = avg(ic_hops, ic_answers);
  out.item_cache.stale_fraction =
      ic_answers == 0 ? 0.0
                      : static_cast<double>(ic_stale) /
                            static_cast<double>(ic_answers);
  out.item_cache.extra_state = static_cast<double>(config.cache_capacity);

  out.replication.avg_hops = avg(rep_hops, rep_lookups);
  // Every update of a replicated item refreshes all its replicas.
  double weighted_replicas = 0;
  for (size_t item : hot_items) {
    weighted_replicas += static_cast<double>(replicas.ReplicaCount(item));
  }
  out.replication.update_messages =
      config.n_items == 0
          ? 0
          : weighted_replicas / static_cast<double>(config.n_items);
  out.replication.extra_state =
      replicas.AvgExtraStatePerNode(static_cast<size_t>(config.n_nodes));

  out.peer_cache.avg_hops = avg(pc_hops, pc_lookups);
  out.peer_cache.extra_state = static_cast<double>(config.aux_k);

  (void)updates;
  return out;
}

}  // namespace peercache::itemcache
