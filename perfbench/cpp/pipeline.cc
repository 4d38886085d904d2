#include "pipeline.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>

#include "auxsel/frequency_table.h"
#include "auxsel/selection_types.h"
#include "common/fault.h"
#include "common/latency.h"
#include "common/random.h"
#include "common/route_result.h"
#include "common/thread_pool.h"
#include "experiments/batch_engine.h"
#include "experiments/experiment_config.h"
#include "experiments/generic_experiment.h"
#include "experiments/overlay_policy.h"
#include "net/actor_node.h"
#include "net/bus.h"
#include "net/peer_cache.h"
#include "net/wire.h"
#include "oracle.h"

namespace perfbench {

namespace {

namespace ex = peercache::experiments;
namespace pnet = peercache::net;
using peercache::Rng;
using peercache::SplitSeed;
using peercache::Status;

/// In-flight window of the batched engines, as in scale_frontier and the
/// library's warmup.
constexpr int kWindow = 16;
/// Chunks of the timed phases (see BestChunks) last roughly 0.1 ms: a
/// warmup or selection chunk is one node, a direct chunk 64 lookups, a
/// batched chunk one 256-job engine call, a bus chunk one tick, and the
/// checkpoint and restart loops close a chunk every 16 actors.
constexpr size_t kLookupChunk = 64;
constexpr size_t kBatchChunk = 256;
constexpr size_t kActorChunk = 16;
/// Chunk indices reserved per bus round (more than any round's ticks).
constexpr size_t kTickChunks = 1 << 14;
/// One bus frame in this many is kept for the checksum oracle.
constexpr uint64_t kFrameSampleStride = 61;
constexpr size_t kFrameSampleCap = 4096;
constexpr size_t kHopCaptureCap = 1 << 16;
constexpr size_t kAnswerCaptureNodes = 64;
/// Nodes per instance and round whose selection gets the single-swap
/// optimality check (rotating through the node list round by round).
constexpr int kSwapCheckNodes = 6;

constexpr uint64_t kClient = pnet::kClientAddress;

template <typename Policy>
constexpr oracle::Geometry GeometryOf() {
  if constexpr (std::is_same_v<Policy, ex::ChordPolicy>) {
    return oracle::Geometry::kChord;
  } else if constexpr (std::is_same_v<Policy, ex::PastryPolicy>) {
    return oracle::Geometry::kPastry;
  } else {
    return oracle::Geometry::kKademlia;
  }
}

template <typename Policy>
constexpr int IndexOf() {
  return static_cast<int>(GeometryOf<Policy>());
}

/// cluster_runtime's fault plan, with the library's default of 8 retries
/// per visit: with 4, a visit that meets several stale dead entries and a
/// drop gives up on some seeds, and a benchmark run may not lose lookups.
peercache::fault::FaultConfig FaultsFor(uint64_t seed) {
  peercache::fault::FaultConfig c;
  c.drop_prob = 0.02;
  c.stale_prob = 0.5;
  c.max_retries = 8;
  c.seed = SplitSeed(seed, 0x666c74);  // "flt"
  return c;
}

/// Lookup id carried by a LOOKUP_REQ/STEP/DONE frame (the first payload
/// field), for tagging handler spans; 0 for anything else.
uint64_t FrameLookupId(const std::vector<uint8_t>& frame) {
  if (frame.size() < 24) return 0;
  uint64_t id = 0;
  for (int i = 0; i < 8; ++i) {
    id |= static_cast<uint64_t>(frame[16 + static_cast<size_t>(i)])
          << (8 * i);
  }
  return id;
}

template <typename Policy>
class OverlayInstance final : public Instance {
 public:
  using Net = typename Policy::Network;
  static constexpr oracle::Geometry kGeo = GeometryOf<Policy>();
  static constexpr int kIndex = IndexOf<Policy>();

  OverlayInstance(const Spec& spec, Ctx& ctx)
      : spec_(spec),
        seeds_(Policy::MakeSeedPlan(ctx.seed)),
        latency_(LatencyFor(ctx.seed)),
        faults_(FaultsFor(ctx.seed)),
        pool_(1) {
    InternNames(ctx.tracer);
    config_.n_nodes = spec.n;
    config_.k = kAux;
    config_.seed = ctx.seed;
    config_.threads = 1;
    config_.successor_list_size = spec.chord_successors;
    config_.leaf_set_half = spec.pastry_leaf_half;
    if (spec.sketch) config_.freq_sketch = SketchParams();
    {
      Span span(ctx.tracer, name_build_);
      net_ = std::make_unique<Net>(MakeNetwork());
      ids_ = ex::SampleNodeIds(config_, seeds_.ids);
      if (Status s = net_->BulkAdd(ids_); !s.ok()) {
        ctx.Fail(std::string(Policy::kName) + " BulkAdd: " + s.ToString());
      }
      net_->StabilizeAll();
    }
    workload_ = std::make_unique<ex::WorkloadBundle>(config_, seeds_, ids_);
    MakeJobs();
  }

  int overlay_index() const override { return kIndex; }
  int n() const override { return spec_.n; }
  double BytesPerNode() const override {
    return net_->MemoryUsage().bytes_per_node;
  }
  int64_t BestNs(Phase phase) const override { return best_[phase].Total(); }
  uint64_t OpsPerRound(Phase phase) const override {
    return ops_per_round_[phase];
  }

  void PrepareChecks() override {
    ring_all_ = std::make_unique<oracle::Ring>(ids_, config_.bits);
    std::vector<uint64_t> survivors;
    std::set_difference(ring_all_->ids().begin(), ring_all_->ids().end(),
                        killed_.begin(), killed_.end(),
                        std::back_inserter(survivors));
    ring_survivors_ =
        std::make_unique<oracle::Ring>(std::move(survivors), config_.bits);
  }

  void RunRound(Ctx& ctx) override {
    if (spec_.warmup_per_node > 0) {
      Warmup(ctx);
      Select(ctx);
    }
    if (!jobs_.empty()) Direct(ctx);
    if (spec_.batch_divisor > 0 && !jobs_.empty()) Batched(ctx);
    if (spec_.bus_per_node > 0) BusCycle(ctx);
  }

  void ReplayBatch(Ctx& ctx) override {
    if (spec_.batch_divisor == 0 || jobs_.empty()) return;
    const size_t m = jobs_.size() / static_cast<size_t>(spec_.batch_divisor);
    const std::span<const ex::LookupJob> jobs(jobs_.data(), m);
    peercache::overlay::RouteResult route;
    uint64_t sink = 0;
    int64_t t0 = NowNs();
    for (const ex::LookupJob& job : jobs) {
      if (net_->LookupInto(job.origin, job.key, route).ok()) {
        sink += route.destination;
      }
    }
    const int64_t direct = NowNs() - t0;
    std::vector<ex::BatchLookupResult> results(m);
    t0 = NowNs();
    ex::RunBatchedLookups(*net_, jobs, kWindow,
                          std::span<ex::BatchLookupResult>(results));
    const int64_t batched = NowNs() - t0;
    for (const auto& r : results) sink -= r.destination;
    if (sink != 0) ctx.Fail(std::string(Policy::kName) + " replay mismatch");
    ctx.layers.batch_ref_direct_ns += direct;
    ctx.layers.batch_ref_batched_ns += batched;
  }

 private:
  static peercache::auxsel::FreqSketchParams SketchParams() {
    peercache::auxsel::FreqSketchParams p;
    p.top_capacity = kSketchTop;
    p.cm_width = kSketchWidth;
    p.cm_depth = kSketchDepth;
    return p;
  }

  Net MakeNetwork() const {
    if constexpr (std::is_same_v<Policy, ex::PastryPolicy>) {
      if (spec_.sampled_rows) {
        // scale_frontier's construction: 16 probes per routing row.
        peercache::pastry::PastryParams params;
        params.bits = config_.bits;
        params.frequency_capacity = config_.frequency_capacity;
        params.freq_sketch = config_.freq_sketch;
        params.leaf_set_half = config_.leaf_set_half;
        params.stabilize_sample = 16;
        return Net(params, seeds_.coords);
      }
    }
    return Policy::MakeNetwork(config_, seeds_);
  }

  void InternNames(Tracer& t) {
    const std::string o = Policy::kName;
    name_build_ = t.Intern(o + ".build");
    name_responsible_ = t.Intern(o + ".responsible");
    name_lookup_ = t.Intern(o + ".lookup");
    name_batch_ = t.Intern(o + ".batch_lookup");
    name_stabilize_ = t.Intern(o + ".stabilize_all");
    name_leave_ = t.Intern(o + ".leave");
    name_join_ = t.Intern(o + ".join");
    name_select_ = t.Intern("auxsel." + o + ".select");
    name_sample_key_ = t.Intern("workload.sample_key");
    name_record_ = t.Intern("auxsel.record");
    name_sel_input_ = t.Intern("auxsel.selection_input");
    name_install_ = t.Intern("auxsel.install");
    name_bus_run_ = t.Intern("net.bus.run");
    name_handle_ = t.Intern("net.actor.handle");
    name_client_ = t.Intern("net.client.done");
    name_control_ = t.Intern("net.control.apply");
    name_create_ = t.Intern("net.peer_cache.create");
    name_put_ = t.Intern("net.peer_cache.put");
    name_sync_ = t.Intern("net.peer_cache.sync");
    name_open_ = t.Intern("net.peer_cache.open");
    name_get_ = t.Intern("net.peer_cache.get");
  }

  /// Query-workload generation (part of set-up): direct jobs, the three
  /// bus rounds' jobs and the kill set, all from the run's seed.
  void MakeJobs() {
    peercache::workload::QueryWorkload& queries = workload_->queries();
    if (spec_.direct_per_node > 0) {
      jobs_.reserve(ids_.size() *
                    static_cast<size_t>(spec_.direct_per_node));
      for (uint64_t origin : ids_) {
        Rng rng(SplitSeed(seeds_.measure, origin));
        for (int q = 0; q < spec_.direct_per_node; ++q) {
          jobs_.push_back({origin, queries.SampleKey(origin, rng)});
        }
      }
    }
    if (spec_.uniform_jobs > 0) {
      Rng rng(SplitSeed(seeds_.measure, 0x10095));
      const uint64_t space = uint64_t{1} << config_.bits;
      for (uint64_t q = 0; q < spec_.uniform_jobs; ++q) {
        const uint64_t origin = ids_[rng.UniformU64(ids_.size())];
        jobs_.push_back({origin, rng.UniformU64(space)});
      }
    }
    if (spec_.bus_per_node == 0) return;

    Rng kill_rng(SplitSeed(config_.seed, 0xdead));
    std::vector<uint64_t> survivors = ids_;
    const size_t n_kill =
        static_cast<size_t>(kKillFraction * static_cast<double>(ids_.size()));
    for (size_t i = 0; i < n_kill && !survivors.empty(); ++i) {
      const size_t pick = kill_rng.UniformU64(survivors.size());
      killed_.push_back(survivors[pick]);
      survivors[pick] = survivors.back();
      survivors.pop_back();
    }
    std::sort(killed_.begin(), killed_.end());
    const size_t per_round =
        ids_.size() * static_cast<size_t>(spec_.bus_per_node);
    for (int r = 0; r < 3; ++r) {
      const std::vector<uint64_t>& origins = r == 1 ? survivors : ids_;
      Rng rng(SplitSeed(seeds_.measure, static_cast<uint64_t>(r + 1)));
      bus_jobs_[r].resize(per_round);
      for (auto& job : bus_jobs_[r]) {
        job.origin = origins[rng.UniformU64(origins.size())];
        job.key = queries.SampleKey(job.origin, rng);
      }
    }
  }

  // ---------------------------------------------------------------- warmup

  void Warmup(Ctx& ctx) {
    const size_t q = static_cast<size_t>(spec_.warmup_per_node);
    const size_t n = ids_.size();
    for (uint64_t id : ids_) net_->GetNode(id)->frequencies.Clear();
    warm_keys_.resize(n * q);
    warm_answers_.resize(n * q);
    peercache::workload::QueryWorkload& queries = workload_->queries();
    bool batch_ok = true;

    ChunkTimer timer(best_[kWarmup]);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t origin = ids_[i];
      auto* node = net_->GetNode(origin);
      uint64_t* keys = &warm_keys_[i * q];
      uint64_t* answers = &warm_answers_[i * q];
      {
        Span span(ctx.tracer, name_sample_key_);
        span.set_items(q);
        Rng rng(SplitSeed(seeds_.warmup, origin));
        for (size_t j = 0; j < q; ++j) keys[j] = queries.SampleKey(origin, rng);
      }
      {
        Span span(ctx.tracer, name_responsible_);
        span.set_items(q);
        if (!ex::RunBatchedResponsible(*net_,
                                       std::span<const uint64_t>(keys, q),
                                       kWindow, std::span<uint64_t>(answers, q))
                 .ok()) {
          batch_ok = false;
        }
      }
      {
        Span span(ctx.tracer, name_record_);
        span.set_items(q);
        for (size_t j = 0; j < q; ++j) {
          if (answers[j] != origin) node->frequencies.Record(answers[j]);
        }
      }
      timer.Next();
    }
    ops_per_round_[kWarmup] = n * q;
    ctx.round->warm_queries += n * q;
    ctx.round->warm_ns += timer.Elapsed();

    // Checks: every answer is the oracle's owner of its key.
    uint64_t failed = 0;
    for (size_t j = 0; j < n * q; ++j) {
      if (!batch_ok || warm_answers_[j] != ring_all_->Owner(kGeo, warm_keys_[j])) {
        ++failed;
      }
    }
    ctx.ops.warmup.attempted += n * q;
    ctx.ops.warmup.failed += failed;
    if (failed > 0) {
      ctx.Fail(std::string(Policy::kName) + ": " + std::to_string(failed) +
               " warmup answers differ from the oracle");
    }
    if (ctx.capture && ctx.captures.answers.size() < kAnswerCaptureNodes) {
      for (size_t i = 0; i < n && ctx.captures.answers.size() <
                                      kAnswerCaptureNodes;
           ++i) {
        ctx.captures.answers.emplace_back(&warm_answers_[i * q],
                                          &warm_answers_[(i + 1) * q]);
      }
    }
  }

  /// The oracle's frequency table of node i: how often each peer owned one
  /// of the node's warmup keys (the node itself excluded).
  std::vector<oracle::Peer> OraclePeers(size_t i) const {
    const size_t q = static_cast<size_t>(spec_.warmup_per_node);
    std::map<uint64_t, double> counts;
    for (size_t j = i * q; j < (i + 1) * q; ++j) {
      const uint64_t owner = ring_all_->Owner(kGeo, warm_keys_[j]);
      if (owner != ids_[i]) counts[owner] += 1.0;
    }
    std::vector<oracle::Peer> peers;
    for (const auto& [id, f] : counts) peers.push_back({id, f});
    return peers;
  }

  // ------------------------------------------------------------- selection

  void Select(Ctx& ctx) {
    const size_t n = ids_.size();
    // Nodes whose selection input is kept for the optimality check.
    std::vector<size_t> sample;
    for (int s = 0; s < kSwapCheckNodes; ++s) {
      sample.push_back((static_cast<size_t>(ctx.round_index) * kSwapCheckNodes +
                        static_cast<size_t>(s) * 7919) % n);
    }
    struct Kept {
      size_t index;
      peercache::auxsel::SelectionInput input;
      std::vector<uint64_t> chosen;
      double cost;
    };
    std::vector<Kept> kept;
    uint64_t failed = 0;

    ChunkTimer timer(best_[kSelect]);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t id = ids_[i];
      peercache::auxsel::SelectionInput input;
      {
        Span span(ctx.tracer, name_sel_input_);
        input.bits = config_.bits;
        input.self_id = id;
        input.k = kAux;
        input.core_ids = net_->CoreNeighborIds(id);
        input.peers = net_->GetNode(id)->frequencies.Snapshot(id);
      }
      ctx.layers.candidates += input.peers.size();
      peercache::Result<peercache::auxsel::Selection> sel =
          peercache::Status::Internal("unset");
      {
        Span span(ctx.tracer, name_select_);
        sel = Policy::SelectOptimal(input);
      }
      if (!sel.ok()) {
        ++failed;
        continue;
      }
      if (std::find(sample.begin(), sample.end(), i) != sample.end()) {
        kept.push_back({i, input, sel->chosen, sel->cost});
      }
      {
        Span span(ctx.tracer, name_install_);
        if (!net_->SetAuxiliaries(id, std::move(sel->chosen)).ok()) ++failed;
      }
      timer.Next();
    }
    ops_per_round_[kSelect] = n;
    ctx.round->selections += n;
    ctx.round->select_ns += timer.Elapsed();
    ctx.layers.selections += n;

    // Checks on every installed set: live, distinct, not self, not core,
    // at most k entries.
    for (size_t i = 0; i < n; ++i) {
      const uint64_t id = ids_[i];
      const auto aux = net_->AuxiliarySpan(id);
      std::vector<uint64_t> core = net_->CoreNeighborIds(id);
      std::sort(core.begin(), core.end());
      std::vector<uint64_t> sorted(aux.begin(), aux.end());
      std::sort(sorted.begin(), sorted.end());
      bool ok = static_cast<int>(sorted.size()) <= kAux &&
                std::adjacent_find(sorted.begin(), sorted.end()) ==
                    sorted.end();
      for (uint64_t a : sorted) {
        ok = ok && a != id && net_->IsAlive(a) &&
             !std::binary_search(core.begin(), core.end(), a);
      }
      if (!ok) ++failed;
    }
    // Eq. 1 checks on the sampled nodes, with the oracle's own distance
    // model: the selector's reported cost is the oracle's cost of the same
    // set, and no single swap lowers it. In exact mode the oracle also
    // rebuilds the frequency table from the warmup keys and requires the
    // selector's input to equal it; in sketch mode every summary entry must
    // be a real observed peer whose weight does not undercount.
    for (const Kept& k : kept) {
      std::vector<oracle::Peer> truth = OraclePeers(k.index);
      std::vector<oracle::Peer> input_peers;
      for (const auto& p : k.input.peers) {
        input_peers.push_back({p.id, p.frequency});
      }
      std::sort(input_peers.begin(), input_peers.end(),
                [](const oracle::Peer& a, const oracle::Peer& b) {
                  return a.id < b.id;
                });
      bool ok = true;
      if (spec_.sketch) {
        for (const oracle::Peer& p : input_peers) {
          auto it = std::lower_bound(
              truth.begin(), truth.end(), p.id,
              [](const oracle::Peer& a, uint64_t id) { return a.id < id; });
          ok = ok && it != truth.end() && it->id == p.id &&
               p.frequency >= it->frequency;
        }
      } else {
        ok = input_peers.size() == truth.size();
        for (size_t j = 0; ok && j < truth.size(); ++j) {
          ok = input_peers[j].id == truth[j].id &&
               input_peers[j].frequency == truth[j].frequency;
        }
      }
      const double cost = oracle::Eq1Cost(kGeo, config_.bits,
                                          k.input.core_ids, k.chosen,
                                          input_peers);
      const double tol = 1e-9 * (1.0 + cost);
      ok = ok && std::abs(cost - k.cost) <= tol;
      const double best = oracle::BestSingleSwapCost(
          kGeo, config_.bits, k.input.self_id, k.input.core_ids, k.chosen,
          input_peers);
      ok = ok && best >= cost - tol;
      if (!ok) {
        ++failed;
        ctx.Fail(std::string(Policy::kName) + ": Eq. 1 check failed at node " +
                 std::to_string(k.input.self_id));
      }
    }
    ctx.ops.selections.attempted += n;
    ctx.ops.selections.failed += failed;
    if (failed > 0) {
      ctx.Fail(std::string(Policy::kName) + ": " + std::to_string(failed) +
               " selections failed their checks");
    }
  }

  // ---------------------------------------------------------------- direct

  void Direct(Ctx& ctx) {
    const size_t m = jobs_.size();
    direct_.resize(m);
    const peercache::latency::LatencyModel* lat =
        spec_.direct_latency ? &latency_ : nullptr;
    peercache::overlay::RouteResult route;
    const uint64_t first_id = ctx.next_lookup_id;
    ctx.next_lookup_id += m;

    ChunkTimer timer(best_[kDirect]);
    for (size_t j = 0; j < m; ++j) {
      Status s = Status::Ok();
      {
        Span span(ctx.tracer, name_lookup_, first_id + j);
        s = net_->LookupInto(jobs_[j].origin, jobs_[j].key, route, nullptr,
                             nullptr, lat);
      }
      Outcome& o = direct_[j];
      o.ok = s.ok();
      o.success = route.success;
      o.destination = route.destination;
      o.hops = route.hops;
      o.aux_hops = route.aux_hops;
      o.latency_ms = route.latency_ms;
      if (ctx.capture && lat != nullptr &&
          ctx.captures.hops.size() < kHopCaptureCap) {
        for (size_t h = 0; h < route.path.size(); ++h) {
          const uint64_t to = h + 1 < route.path.size() ? route.path[h + 1]
                                                        : route.destination;
          ctx.captures.hops.push_back(
              {jobs_[j].key, route.path[h], to, static_cast<int>(h)});
        }
      }
      if ((j + 1) % kLookupChunk == 0 || j + 1 == m) timer.Next();
    }
    ops_per_round_[kDirect] = m;
    ctx.round->direct[kIndex] += m;
    ctx.round->direct_ns[kIndex] += timer.Elapsed();

    uint64_t failed = 0;
    const auto& cfg = latency_.config();
    for (size_t j = 0; j < m; ++j) {
      const Outcome& o = direct_[j];
      bool ok = o.ok && o.success &&
                o.destination == ring_all_->Owner(kGeo, jobs_[j].key);
      if (lat != nullptr) {
        ok = ok && oracle::LookupLatencyBounds(cfg.base_rtt_ms,
                                               cfg.coord_scale_ms,
                                               cfg.jitter_ms, cfg.timeout_ms,
                                               o.hops, 0)
                       .Contains(o.latency_ms);
        ctx.round->latencies.push_back(o.latency_ms);
        ctx.round->latency_sum += o.latency_ms;
      }
      if (!ok) ++failed;
      ctx.round->hops += static_cast<uint64_t>(o.hops);
      ctx.layers.direct_hops[kIndex] += static_cast<uint64_t>(o.hops);
      ctx.layers.direct_aux_hops[kIndex] += static_cast<uint64_t>(o.aux_hops);
    }
    ctx.round->routed += m;
    ctx.layers.direct_lookups[kIndex] += m;
    ctx.ops.direct.attempted += m;
    ctx.ops.direct.failed += failed;
    if (failed > 0) {
      ctx.Fail(std::string(Policy::kName) + ": " + std::to_string(failed) +
               " direct lookups not delivered at the oracle's owner");
    }
  }

  // --------------------------------------------------------------- batched

  void Batched(Ctx& ctx) {
    const size_t m = jobs_.size() / static_cast<size_t>(spec_.batch_divisor);
    batch_results_.assign(m, ex::BatchLookupResult{});
    const std::span<const ex::LookupJob> jobs(jobs_.data(), m);
    const std::span<ex::BatchLookupResult> results(batch_results_);
    ChunkTimer timer(best_[kBatch]);
    for (size_t begin = 0; begin < m; begin += kBatchChunk) {
      const size_t len = std::min(kBatchChunk, m - begin);
      {
        Span span(ctx.tracer, name_batch_);
        span.set_items(len);
        ex::RunBatchedLookups(*net_, jobs.subspan(begin, len), kWindow,
                              results.subspan(begin, len));
      }
      timer.Next();
    }
    ops_per_round_[kBatch] = m;
    ctx.round->batched += m;
    ctx.round->batch_ns += timer.Elapsed();

    // Job by job, the batched outcome equals the direct one (which the
    // oracle has already checked).
    uint64_t failed = 0;
    for (size_t j = 0; j < m; ++j) {
      const ex::BatchLookupResult& r = batch_results_[j];
      const Outcome& d = direct_[j];
      if (!r.ok || !r.success || r.destination != d.destination ||
          r.hops != d.hops || r.aux_hops != d.aux_hops ||
          r.destination != ring_all_->Owner(kGeo, jobs_[j].key)) {
        ++failed;
      }
      ctx.round->hops += static_cast<uint64_t>(r.hops);
    }
    ctx.round->routed += m;
    ctx.ops.batched.attempted += m;
    ctx.ops.batched.failed += failed;
    if (failed > 0) {
      ctx.Fail(std::string(Policy::kName) + ": " + std::to_string(failed) +
               " batched lookups differ from the direct path");
    }
  }

  // ------------------------------------------------------------------- bus

  Status ApplyControlFrame(Ctx& ctx, const pnet::AnyMessage& msg) {
    Span span(ctx.tracer, name_control_);
    const std::vector<uint8_t> frame = pnet::Encode(msg);
    peercache::Result<pnet::AnyMessage> decoded =
        pnet::Decode(std::span<const uint8_t>(frame));
    if (!decoded.ok()) return decoded.status();
    return pnet::ActorHost<Net>::ApplyControl(*net_, decoded.value());
  }

  std::vector<std::pair<uint64_t, uint64_t>> FrequencyPairs(uint64_t id) {
    std::vector<peercache::auxsel::PeerFreq> snap =
        net_->GetNode(id)->frequencies.Snapshot(id);
    std::sort(snap.begin(), snap.end(),
              [](const auto& a, const auto& b) {
                if (a.frequency != b.frequency) return a.frequency > b.frequency;
                return a.id < b.id;
              });
    std::vector<std::pair<uint64_t, uint64_t>> out;
    out.reserve(snap.size());
    for (const auto& p : snap) {
      out.emplace_back(p.id, static_cast<uint64_t>(p.frequency));
    }
    return out;
  }

  std::string CachePath() const {
    return std::string(Policy::kName) + "-" + std::to_string(spec_.n) +
           ".peercache";
  }

  void BusCycle(Ctx& ctx) {
    const std::string path = ctx.workdir + "/" + CachePath();
    pnet::PeerCacheConfig cache_config;
    cache_config.slot_count = static_cast<uint32_t>(8 * ids_.size() + 64);
    cache_config.aux_capacity = static_cast<uint32_t>(kAux);
    cache_config.freq_capacity = kSketchTop;
    cache_config.salt = SplitSeed(config_.seed, 0x70636373);  // "pccs"

    // 1. Checkpoint: create, put every actor, sync.
    uint64_t put_failed = 0;
    ChunkTimer checkpoint(best_[kCheckpoint]);
    std::unique_ptr<pnet::PeerCache> cache;
    {
      Span span(ctx.tracer, name_create_);
      auto created = pnet::PeerCache::Create(path, cache_config);
      if (created.ok()) {
        cache = std::make_unique<pnet::PeerCache>(std::move(created).value());
      }
    }
    checkpoint.Next();
    if (cache == nullptr) {
      ctx.Fail("PeerCache::Create failed for " + path);
      ctx.ops.records_written.attempted += ids_.size();
      ctx.ops.records_written.failed += ids_.size();
      return;
    }
    for (size_t i = 0; i < ids_.size(); ++i) {
      pnet::PeerRecord record;
      record.node_id = ids_[i];
      const auto aux = net_->AuxiliarySpan(ids_[i]);
      record.auxiliaries.assign(aux.begin(), aux.end());
      record.frequencies = FrequencyPairs(ids_[i]);
      {
        Span span(ctx.tracer, name_put_);
        if (!cache->Put(record).ok()) ++put_failed;
      }
      if ((i + 1) % kActorChunk == 0) checkpoint.Next();
    }
    {
      Span span(ctx.tracer, name_sync_);
      if (!cache->Sync().ok()) put_failed = ids_.size();
    }
    checkpoint.Next();
    ops_per_round_[kCheckpoint] = ids_.size();
    ctx.round->checkpoint_ns += checkpoint.Elapsed();
    if (cache->stats().evictions != 0) put_failed += cache->stats().evictions;
    ctx.ops.records_written.attempted += ids_.size();
    ctx.ops.records_written.failed += put_failed;
    if (put_failed > 0) {
      ctx.Fail(std::string(Policy::kName) + ": " +
               std::to_string(put_failed) + " cache records not written");
    }
    cache.reset();
    CheckCacheFile(ctx, path);
    std::vector<std::vector<uint64_t>> before(killed_.size());
    for (size_t i = 0; i < killed_.size(); ++i) {
      const auto aux = net_->AuxiliarySpan(killed_[i]);
      before[i].assign(aux.begin(), aux.end());
    }

    // 2. Healthy round.
    BusRound(ctx, 0, *ring_all_);

    // 3. Hard crash of the kill set (state forgotten where supported).
    for (uint64_t id : killed_) {
      Span span(ctx.tracer, name_leave_);
      if (Status s = ApplyControlFrame(ctx, pnet::Leave{id, 1}); !s.ok()) {
        ctx.Fail("LEAVE: " + s.ToString());
      }
    }

    // 4. Outage round over tables that still name the dead.
    BusRound(ctx, 1, *ring_survivors_);

    // 5. Warm restart: JOIN, STABILIZE, reopen the cache, restore.
    uint64_t restore_failed = 0;
    ChunkTimer restart(best_[kRestart]);
    for (size_t i = 0; i < killed_.size(); ++i) {
      {
        Span span(ctx.tracer, name_join_);
        if (Status s = ApplyControlFrame(ctx, pnet::Join{killed_[i]});
            !s.ok()) {
          ctx.Fail("JOIN: " + s.ToString());
        }
      }
      if ((i + 1) % kActorChunk == 0) restart.Next();
    }
    restart.Next();
    {
      Span span(ctx.tracer, name_stabilize_);
      if (Status s = ApplyControlFrame(ctx, pnet::Stabilize{pnet::kAllNodes});
          !s.ok()) {
        ctx.Fail("STABILIZE: " + s.ToString());
      }
    }
    restart.Next();
    std::unique_ptr<pnet::PeerCache> reopened;
    {
      Span span(ctx.tracer, name_open_);
      auto opened = pnet::PeerCache::Open(path);
      if (opened.ok()) {
        reopened =
            std::make_unique<pnet::PeerCache>(std::move(opened).value());
      }
    }
    restart.Next();
    for (size_t i = 0; reopened != nullptr && i < killed_.size(); ++i) {
      if (i > 0 && i % kActorChunk == 0) restart.Next();
      const uint64_t id = killed_[i];
      pnet::PeerRecord record;
      bool got = false;
      {
        Span span(ctx.tracer, name_get_);
        got = reopened->Get(id, record);
      }
      if (!got) {
        ++restore_failed;
        continue;
      }
      auto* node = net_->GetNode(id);
      node->frequencies.Clear();
      for (const auto& [peer, count] : record.frequencies) {
        node->frequencies.Record(peer, count);
      }
      if (!net_->SetAuxiliaries(id, record.auxiliaries).ok()) {
        ++restore_failed;
      }
    }
    restart.Next();
    ops_per_round_[kRestart] = killed_.size();
    ctx.round->restart_ns += restart.Elapsed();
    if (reopened == nullptr) {
      restore_failed = killed_.size();
      ctx.Fail("PeerCache::Open failed for " + path);
    } else if (reopened->stats().rejected != 0) {
      ctx.Fail("PeerCache::Open rejected records in " + path);
    }
    // Warm means byte-identical to the pre-crash installation.
    for (size_t i = 0; i < killed_.size(); ++i) {
      const auto aux = net_->AuxiliarySpan(killed_[i]);
      if (!std::equal(aux.begin(), aux.end(), before[i].begin(),
                      before[i].end())) {
        ++restore_failed;
      }
    }
    ctx.ops.records_restored.attempted += killed_.size();
    ctx.ops.records_restored.failed += restore_failed;
    if (restore_failed > 0) {
      ctx.Fail(std::string(Policy::kName) + ": " +
               std::to_string(restore_failed) + " actors not restored warm");
    }

    // 6. Recovered round.
    BusRound(ctx, 2, *ring_all_);
  }

  /// Verifies the header and every used record of the checkpoint file
  /// against the checksum oracle, reading the bytes directly.
  void CheckCacheFile(Ctx& ctx, const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    auto le = [&](size_t off, int width) {
      uint64_t v = 0;
      for (int i = 0; i < width; ++i) {
        v |= static_cast<uint64_t>(bytes[off + static_cast<size_t>(i)])
             << (8 * i);
      }
      return v;
    };
    constexpr size_t kHeader = 40;
    bool ok = bytes.size() >= kHeader &&
              le(28, 4) == oracle::Crc32Bitwise(bytes.data(), 28, 0,
                                                oracle::kPolyIeee);
    uint64_t records = 0;
    if (ok) {
      const uint64_t salt = le(8, 8);
      const uint64_t slots = le(16, 4);
      const size_t record = 24 + 8 * le(20, 4) + 16 * le(24, 4);
      ok = bytes.size() == kHeader + slots * record;
      for (uint64_t s = 0; ok && s < slots; ++s) {
        const size_t off = kHeader + s * record;
        if (le(off, 4) == 0) continue;  // empty slot
        ++records;
        ok = oracle::RecordChecksumOk(&bytes[off], record, salt,
                                      oracle::kPolyIeee);
      }
    }
    if (!ok || records != ids_.size()) {
      ctx.Fail(std::string(Policy::kName) +
               ": cache file failed the checksum oracle");
      ++ctx.ops.records_written.failed;
    }
  }

  void BusRound(Ctx& ctx, int round, const oracle::Ring& ring) {
    const std::vector<ex::LookupJob>& jobs = bus_jobs_[round];
    typename pnet::ActorHost<Net>::Config host_config;
    host_config.faults = &faults_;
    host_config.latency = &latency_;
    pnet::ActorHost<Net> host(*net_, host_config);
    pnet::BusConfig bus_config;
    bus_config.seed = SplitSeed(config_.seed, 0x627573 + round);  // "bus"
    pnet::MessageBus bus(bus_config, &pool_);
    for (size_t i = 0; i < jobs.size(); ++i) {
      bus.Post(kClient, jobs[i].origin, 0.0,
               host.MakeLookupReq(i, jobs[i].origin, jobs[i].key));
    }
    std::vector<pnet::LookupDone> dones(jobs.size());
    std::vector<uint8_t> seen(jobs.size(), 0);
    uint64_t frames = 0, bytes = 0, undecodable = 0;
    const bool tracing = ctx.tracer.enabled();

    // One chunk per delivery tick; each bus round owns its own range of
    // chunk indices (the tick schedule repeats exactly every round).
    ChunkTimer timer(best_[kBus], static_cast<size_t>(round) * kTickChunks);
    uint64_t tick = 0;
    {
      Span run_span(ctx.tracer, name_bus_run_);
      bus.Run([&](const pnet::Envelope& env,
                  std::vector<pnet::Outbound>& out) {
        if (env.tick != tick) {
          timer.Next();
          tick = env.tick;
        }
        ++frames;
        bytes += env.payload.size();
        if (frames % kFrameSampleStride == 0 &&
            ctx.captures.frames.size() < kFrameSampleCap) {
          ctx.captures.frames.push_back(env.payload);
        }
        const uint64_t lookup = tracing ? FrameLookupId(env.payload) : 0;
        if (env.dst != kClient) {
          Span span(ctx.tracer, name_handle_, lookup);
          host.HandleMessage(env, out);
          return;
        }
        Span span(ctx.tracer, name_client_, lookup);
        auto decoded = pnet::Decode(std::span<const uint8_t>(env.payload));
        if (!decoded.ok() ||
            !std::holds_alternative<pnet::LookupDone>(decoded.value())) {
          ++undecodable;
          return;
        }
        pnet::LookupDone& done = std::get<pnet::LookupDone>(decoded.value());
        if (done.lookup_id < dones.size() && seen[done.lookup_id] == 0) {
          seen[done.lookup_id] = 1;
          dones[done.lookup_id] = std::move(done);
        }
      });
    }
    timer.Next();
    const int64_t elapsed = timer.Elapsed();
    ops_per_round_[kBus] = 3 * jobs.size();
    ctx.round->bus_lookups += jobs.size();
    ctx.round->bus_ns += elapsed;
    ctx.round->wire_bytes += bytes;
    ctx.layers.bus_runs += 1;
    ctx.layers.bus_ticks += bus.last_tick();
    ctx.layers.bus_frames += frames;
    ctx.layers.bus_bytes += bytes;
    ctx.layers.bus_lookups += jobs.size();
    ctx.ops.frames.attempted += frames;
    ctx.ops.frames.failed += undecodable;

    uint64_t failed = 0;
    const auto& cfg = latency_.config();
    peercache::overlay::RouteResult result;
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (seen[i] == 0 || !pnet::UnpackDone(dones[i], result, nullptr).ok()) {
        ++failed;
        continue;
      }
      const bool ok =
          result.success &&
          result.destination == ring.Owner(kGeo, jobs[i].key) &&
          oracle::LookupLatencyBounds(cfg.base_rtt_ms, cfg.coord_scale_ms,
                                      cfg.jitter_ms, cfg.timeout_ms,
                                      result.hops, result.retries)
              .Contains(result.latency_ms);
      if (!ok) ++failed;
      ctx.round->hops += static_cast<uint64_t>(result.hops);
      ctx.round->latencies.push_back(result.latency_ms);
      ctx.round->latency_sum += result.latency_ms;
      ctx.layers.bus_retries += static_cast<uint64_t>(result.retries);
    }
    ctx.round->routed += jobs.size();
    ctx.ops.bus.attempted += jobs.size();
    ctx.ops.bus.failed += failed;
    if (failed > 0) {
      ctx.Fail(std::string(Policy::kName) + ": " + std::to_string(failed) +
               " bus lookups (round " + std::to_string(round) +
               ") not delivered at the oracle's owner");
    }
  }

  struct Outcome {
    bool ok = false;
    bool success = false;
    uint64_t destination = 0;
    int hops = 0;
    int aux_hops = 0;
    double latency_ms = 0.0;
  };

  Spec spec_;
  ex::ExperimentConfig config_;
  ex::SeedPlan seeds_;
  peercache::latency::LatencyModel latency_;
  peercache::fault::FaultPlan faults_;
  peercache::ThreadPool pool_;
  std::unique_ptr<Net> net_;
  std::vector<uint64_t> ids_;
  std::unique_ptr<ex::WorkloadBundle> workload_;
  std::vector<ex::LookupJob> jobs_;
  std::vector<ex::LookupJob> bus_jobs_[3];
  std::vector<uint64_t> killed_;
  std::unique_ptr<oracle::Ring> ring_all_;
  std::unique_ptr<oracle::Ring> ring_survivors_;
  std::vector<uint64_t> warm_keys_;
  std::vector<uint64_t> warm_answers_;
  std::vector<Outcome> direct_;
  std::vector<ex::BatchLookupResult> batch_results_;
  BestChunks best_[kPhaseCount];
  uint64_t ops_per_round_[kPhaseCount] = {};

  uint32_t name_build_ = 0, name_responsible_ = 0, name_lookup_ = 0,
           name_batch_ = 0, name_stabilize_ = 0, name_leave_ = 0,
           name_join_ = 0, name_select_ = 0, name_sample_key_ = 0,
           name_record_ = 0, name_sel_input_ = 0, name_install_ = 0,
           name_bus_run_ = 0, name_handle_ = 0, name_client_ = 0,
           name_control_ = 0, name_create_ = 0, name_put_ = 0,
           name_sync_ = 0, name_open_ = 0, name_get_ = 0;
};

}  // namespace

peercache::latency::LatencyConfig LatencyFor(uint64_t seed) {
  peercache::latency::LatencyConfig c;
  c.base_rtt_ms = 12.0;
  c.coord_scale_ms = 40.0;
  c.jitter_ms = 3.0;
  c.timeout_ms = 50.0;
  c.seed = SplitSeed(seed, 0x6c6174);  // "lat"
  return c;
}

std::unique_ptr<Instance> MakeInstance(const std::string& overlay,
                                       const Spec& spec, Ctx& ctx) {
  if (overlay == "chord") {
    return std::make_unique<OverlayInstance<ex::ChordPolicy>>(spec, ctx);
  }
  if (overlay == "pastry") {
    return std::make_unique<OverlayInstance<ex::PastryPolicy>>(spec, ctx);
  }
  if (overlay == "kademlia") {
    return std::make_unique<OverlayInstance<ex::KademliaPolicy>>(spec, ctx);
  }
  return nullptr;
}

}  // namespace perfbench
