// One overlay instance of the benchmark: built from a Spec at set-up, then
// driven through whole rounds of the same phases -- warmup, Eq. 1
// selection and install, direct lookups, batched lookups, and a
// checkpoint / crash / outage / warm-restart cycle over the message bus.
// A phase whose size in the Spec is zero is skipped. Every phase is timed
// from outside with library calls only, and its outputs are checked
// against the independent oracles after the timed region.
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/latency.h"
#include "trace.h"

namespace perfbench {

/// Sizes and modes of one overlay instance.
struct Spec {
  int n = 2048;
  bool sampled_rows = false;  ///< Pastry sampled row fill (scale build).
  int chord_successors = 1;
  int pastry_leaf_half = 4;   ///< Pastry leaf-set entries per side.
  bool sketch = false;        ///< Sketch-mode frequency tables.
  int warmup_per_node = 0;    ///< 0: no warmup and no selection.
  int direct_per_node = 0;    ///< Zipf lookups per node (node-major).
  uint64_t uniform_jobs = 0;  ///< Uniform (origin, key) lookups.
  bool direct_latency = false;
  int batch_divisor = 0;      ///< Batched pass over jobs/divisor; 0: none.
  int bus_per_node = 0;       ///< Bus lookups per round per node; 0: none.
};

/// Auxiliary pointers per node (ExperimentConfig's default, log2 1024).
inline constexpr int kAux = 10;
/// Share of the actors a crash cycle kills.
inline constexpr double kKillFraction = 0.1;

/// Sketch tier of bench/freq_sketch's headline row (<= 1/16 of exact).
inline constexpr int kSketchTop = 42;
inline constexpr int kSketchWidth = 16;
inline constexpr int kSketchDepth = 2;

/// The timed phases of a round.
enum Phase {
  kWarmup,
  kSelect,
  kDirect,
  kBatch,
  kBus,
  kCheckpoint,
  kRestart,
  kPhaseCount
};

/// Fastest time seen for each fixed chunk of a phase, over all rounds.
/// Every round repeats the same chunks on the same inputs, and load from
/// other tenants of the machine only ever slows a chunk down, so the sum
/// of per-chunk minima estimates the phase's uncontended cost far more
/// steadily than one round's total (which swings by 20% or more).
class BestChunks {
 public:
  void Record(size_t chunk, int64_t ns) {
    if (chunk >= best_.size()) {
      best_.resize(chunk + 1, std::numeric_limits<int64_t>::max());
    }
    best_[chunk] = std::min(best_[chunk], ns);
  }
  int64_t Total() const {
    int64_t sum = 0;
    for (int64_t ns : best_) {
      if (ns != std::numeric_limits<int64_t>::max()) sum += ns;  // unused
    }
    return sum;
  }

 private:
  std::vector<int64_t> best_;
};

/// Cuts one pass over a phase into consecutive chunks: each Next() closes
/// the current chunk and records its time under the next chunk index.
class ChunkTimer {
 public:
  ChunkTimer(BestChunks& best, size_t first_index = 0)
      : best_(best), index_(first_index), start_(NowNs()), begin_(start_) {}
  void Next() {
    const int64_t now = NowNs();
    best_.Record(index_++, now - begin_);
    begin_ = now;
  }
  /// Time since construction, up to the last Next().
  int64_t Elapsed() const { return begin_ - start_; }
  size_t index() const { return index_; }

 private:
  BestChunks& best_;
  size_t index_;
  int64_t start_;
  int64_t begin_;
};

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Operations attempted and failed, per class, over the whole run.
struct Ops {
  OpCount warmup, selections, direct, batched, bus, frames, records_written,
      records_restored;
};

/// Timed work of one round, summed over instances.
struct RoundStats {
  uint64_t warm_queries = 0;
  int64_t warm_ns = 0;
  uint64_t selections = 0;
  int64_t select_ns = 0;
  uint64_t direct[3] = {0, 0, 0};
  int64_t direct_ns[3] = {0, 0, 0};
  uint64_t batched = 0;
  int64_t batch_ns = 0;
  uint64_t bus_lookups = 0;
  int64_t bus_ns = 0;
  int64_t checkpoint_ns = 0;
  int64_t restart_ns = 0;
  int64_t total_ns = 0;
  // Deterministic outcome of the round (identical in every round).
  uint64_t hops = 0;
  uint64_t routed = 0;
  uint64_t wire_bytes = 0;
  double latency_sum = 0.0;
  std::vector<double> latencies;
};

/// Counts for the per-layer report, over the whole run.
struct LayerCounts {
  uint64_t direct_hops[3] = {0, 0, 0};
  uint64_t direct_aux_hops[3] = {0, 0, 0};
  uint64_t direct_lookups[3] = {0, 0, 0};
  uint64_t candidates = 0;
  uint64_t selections = 0;
  uint64_t bus_runs = 0;
  uint64_t bus_ticks = 0;
  uint64_t bus_frames = 0;
  uint64_t bus_bytes = 0;
  uint64_t bus_lookups = 0;
  uint64_t bus_retries = 0;
  int64_t batch_ref_direct_ns = 0;
  int64_t batch_ref_batched_ns = 0;
};

/// Inputs captured for the traced run's replays of inner library calls.
struct Captures {
  std::vector<std::vector<uint8_t>> frames;
  struct Hop {
    uint64_t key, from, to;
    int attempt;
  };
  std::vector<Hop> hops;
  std::vector<std::vector<uint64_t>> answers;  ///< warmup answers per node
};

/// Shared state of one benchmark run.
struct Ctx {
  Ctx(bool trace, std::string workdir_in, uint64_t seed_in)
      : tracer(trace, 50000), workdir(std::move(workdir_in)),
        seed(seed_in) {}

  Tracer tracer;
  std::string workdir;
  uint64_t seed;
  bool capture = false;  ///< collect replay inputs (traced run)
  Ops ops;
  LayerCounts layers;
  Captures captures;
  RoundStats* round = nullptr;
  int round_index = 0;
  uint64_t next_lookup_id = 1;
  uint64_t check_failures = 0;
  std::vector<std::string> failure_notes;

  void Fail(const std::string& what) {
    ++check_failures;
    if (failure_notes.size() < 20) failure_notes.push_back(what);
  }
};

/// One overlay built from a Spec. Construction is the set-up (build plus
/// query-workload generation); PrepareChecks builds the oracles and is
/// not timed.
class Instance {
 public:
  virtual ~Instance() = default;
  virtual int overlay_index() const = 0;
  virtual void PrepareChecks() = 0;
  virtual void RunRound(Ctx& ctx) = 0;
  /// Traced run only: routes the batched job list once directly and once
  /// through the batched engine, for the batch speedup.
  virtual void ReplayBatch(Ctx& ctx) = 0;
  virtual double BytesPerNode() const = 0;
  /// Sum of per-chunk best times of `phase`, and the operations one round
  /// of it performs.
  virtual int64_t BestNs(Phase phase) const = 0;
  virtual uint64_t OpsPerRound(Phase phase) const = 0;
  virtual int n() const = 0;
};

/// The latency model of every lookup routed under one (direct lookups of
/// the stable pipeline, and the bus): base RTT 12 ms, coordinate scale
/// 40 ms, jitter 3 ms, timeout 50 ms, salted from the run's seed.
peercache::latency::LatencyConfig LatencyFor(uint64_t seed);

/// Builds instance `overlay` ("chord", "pastry" or "kademlia").
std::unique_ptr<Instance> MakeInstance(const std::string& overlay,
                                       const Spec& spec, Ctx& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
