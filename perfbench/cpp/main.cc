// peercache_perfbench: one workload per invocation, single-threaded.
//
//   peercache_perfbench --workload paper-stable|scale-route|bus-restart
//                       --seed N --seconds S --trace 0|1 --workdir DIR
//
// Set-up (building every overlay instance and generating its queries) runs
// kSetupReps times and setup_s is the median. Then whole rounds of the
// same operations run until S seconds have passed; each timed phase is
// cut into fixed chunks whose fastest repetition over all rounds counts
// (BestChunks in pipeline.h). Outputs are checked against the oracles in
// oracle.h after every timed phase. The last stdout line is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics, or with --trace 1 the
// per-layer metrics). Exit status is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "auxsel/frequency_table.h"
#include "common/latency.h"
#include "net/wire.h"
#include "oracle.h"
#include "pipeline.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
const char* const kOverlays[3] = {"chord", "pastry", "kademlia"};

/// The paper's stable pipeline at its default n = 1024 (Sec. VI-A): exact
/// frequency tables fed by 200 Zipf warmup queries per node, Eq. 1
/// selection on every node, 50 measured Zipf lookups per node under the
/// latency model, and half of them again through the batched engine on
/// cache-resident tables.
Spec PaperStable() {
  Spec s;
  s.n = 1024;
  s.warmup_per_node = 200;
  s.direct_per_node = 50;
  s.direct_latency = true;
  s.batch_divisor = 2;
  return s;
}

/// Core-only routing on overlays whose tables are many times the L2
/// cache, built like scale_frontier (Pastry's sampled row fill); one
/// uniform job list routed directly, then through the batched engine.
Spec ScaleRoute() {
  Spec s;
  s.n = 1 << 16;
  s.sampled_rows = true;
  s.uniform_jobs = 1 << 12;
  s.batch_divisor = 1;
  return s;
}

/// cluster_runtime's crash/restart scenario: sketch-mode tables, Eq. 1
/// selection from the sketch summary, a peer-cache checkpoint, three bus
/// rounds around a 10% hard crash and a warm restart. Chord keeps 8
/// successors and Pastry 8 leaves per side so that the outage round loses
/// no lookup on any seed: a node whose whole successor list (or one side
/// of its leaf set) died delivers lookups at itself, which happens on some
/// seeds with 4 successors or 4 leaves per side.
Spec BusRestart(int n, int bus_per_node, int direct_per_node) {
  Spec s;
  s.n = n;
  s.chord_successors = 8;
  s.pastry_leaf_half = 8;
  s.sketch = true;
  s.warmup_per_node = 100;
  s.direct_per_node = direct_per_node;
  s.direct_latency = true;
  s.batch_divisor = direct_per_node > 0 ? 1 : 0;
  s.bus_per_node = bus_per_node;
  return s;
}

/// Each workload is one main part, where its layers do most of their work,
/// plus a small side part so that every end-to-end metric is measured in
/// every workload.
std::vector<Spec> WorkloadParts(const std::string& name) {
  if (name == "paper-stable") {
    return {PaperStable(), BusRestart(512, 1, 0)};
  }
  if (name == "scale-route") {
    return {ScaleRoute(), BusRestart(512, 1, 0)};
  }
  if (name == "bus-restart") return {BusRestart(1024, 2, 4)};
  return {};
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PerSecond(double count, int64_t ns) {
  return ns <= 0 ? 0.0 : count * 1e9 / static_cast<double>(ns);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0' && value[0] != '-';
    } else if (flag == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || s < 1 || s > 600) {
        return false;
      }
      a.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else {
      return false;
    }
  }
  return have_seed && a.seconds > 0 && a.trace >= 0 && !a.workdir.empty() &&
         !WorkloadParts(a.workload).empty();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
}

/// Instances of one set-up, in part-major, overlay-minor order.
using Instances = std::vector<std::unique_ptr<Instance>>;

Instances BuildAll(const std::vector<Spec>& parts, Ctx& ctx) {
  Instances out;
  for (const Spec& spec : parts) {
    for (const char* overlay : kOverlays) {
      out.push_back(MakeInstance(overlay, spec, ctx));
    }
  }
  return out;
}

/// End-to-end metrics of the run. Throughputs and times come from each
/// phase's per-chunk best times (BestChunks), summed over instances; hops,
/// simulated latency and wire bytes are the first round's outcome, which
/// every later round reproduces exactly.
std::vector<Metric> EndToEnd(const std::vector<RoundStats>& rounds,
                             const Instances& instances, double setup_s) {
  auto rate = [&](Phase phase, int overlay) {
    double ops = 0.0;
    int64_t ns = 0;
    for (const auto& inst : instances) {
      if (overlay >= 0 && inst->overlay_index() != overlay) continue;
      ops += static_cast<double>(inst->OpsPerRound(phase));
      ns += inst->BestNs(phase);
    }
    return PerSecond(ops, ns);
  };
  auto seconds = [&](Phase phase) {
    int64_t ns = 0;
    for (const auto& inst : instances) ns += inst->BestNs(phase);
    return static_cast<double>(ns) * 1e-9;
  };
  const RoundStats& first = rounds.front();
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"warmup_queries_per_s", rate(kWarmup, -1), "1/s"});
  m.push_back({"selections_per_s", rate(kSelect, -1), "1/s"});
  for (int o = 0; o < 3; ++o) {
    m.push_back({std::string("lookups_per_s.") + kOverlays[o],
                 rate(kDirect, o), "1/s"});
  }
  m.push_back({"batch_lookups_per_s", rate(kBatch, -1), "1/s"});
  m.push_back({"bus_lookups_per_s", rate(kBus, -1), "1/s"});
  m.push_back({"checkpoint_s", seconds(kCheckpoint), "s"});
  m.push_back({"restart_s", seconds(kRestart), "s"});
  m.push_back({"mean_hops",
               first.routed == 0 ? 0.0
                                 : static_cast<double>(first.hops) /
                                       static_cast<double>(first.routed),
               "hops"});
  m.push_back({"latency_p50_ms", Percentile(first.latencies, 0.50), "ms"});
  m.push_back({"latency_p99_ms", Percentile(first.latencies, 0.99), "ms"});
  m.push_back({"wire_bytes_per_lookup",
               first.bus_lookups == 0
                   ? 0.0
                   : static_cast<double>(first.wire_bytes) /
                         static_cast<double>(first.bus_lookups),
               "B"});
  m.push_back({"rss_peak_mb", PeakRssMb(), "MB"});
  return m;
}

/// Replays inner library calls on inputs this run produced (traced run).
void ReplayInnerCalls(Ctx& ctx, const Instances& instances, uint64_t seed) {
  Tracer& t = ctx.tracer;
  const uint32_t freq = t.Intern("auxsel.freq_record");
  const uint32_t sketch = t.Intern("auxsel.sketch_record");
  const uint32_t hop = t.Intern("latency.hop");
  const uint32_t encode = t.Intern("net.wire.encode");
  const uint32_t decode = t.Intern("net.wire.decode");
  const uint32_t crc = t.Intern("net.wire.crc32");
  constexpr int kPasses = 20;

  peercache::auxsel::FreqSketchParams tier;
  tier.top_capacity = kSketchTop;
  tier.cm_width = kSketchWidth;
  tier.cm_depth = kSketchDepth;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const std::vector<uint64_t>& answers : ctx.captures.answers) {
      peercache::auxsel::FrequencyTable exact;
      peercache::auxsel::FrequencyTable sketched(0, tier);
      {
        Span span(t, freq);
        span.set_items(answers.size());
        for (uint64_t a : answers) exact.Record(a);
      }
      {
        Span span(t, sketch);
        span.set_items(answers.size());
        for (uint64_t a : answers) sketched.Record(a);
      }
      if (exact.total() != sketched.total()) ctx.Fail("record replay total");
    }
  }

  const peercache::latency::LatencyModel model(LatencyFor(seed));
  double sink = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    Span span(t, hop);
    span.set_items(ctx.captures.hops.size());
    for (const Captures::Hop& h : ctx.captures.hops) {
      sink += model.HopLatencyMs(h.key, h.from, h.to, h.attempt);
    }
  }
  if (!(sink >= 0.0)) ctx.Fail("hop replay");

  std::vector<peercache::net::AnyMessage> messages;
  uint64_t bytes = 0;
  for (const auto& frame : ctx.captures.frames) {
    auto decoded = peercache::net::Decode(std::span<const uint8_t>(frame));
    if (decoded.ok()) messages.push_back(std::move(decoded).value());
    bytes += frame.size();
  }
  for (int pass = 0; pass < kPasses; ++pass) {
    {
      Span span(t, decode);
      span.set_items(ctx.captures.frames.size());
      for (const auto& frame : ctx.captures.frames) {
        if (!peercache::net::Decode(std::span<const uint8_t>(frame)).ok()) {
          ctx.Fail("decode replay");
        }
      }
    }
    {
      Span span(t, encode);
      span.set_items(messages.size());
      for (const auto& msg : messages) {
        if (peercache::net::Encode(msg).empty()) ctx.Fail("encode replay");
      }
    }
    {
      Span span(t, crc);
      span.set_items(bytes);
      uint32_t acc = 0;
      for (const auto& frame : ctx.captures.frames) {
        acc ^= peercache::net::Crc32(std::span<const uint8_t>(frame));
      }
      sink += acc;
    }
  }
  for (const auto& instance : instances) instance->ReplayBatch(ctx);
}

std::vector<Metric> PerLayer(const Ctx& ctx, const Instances& instances) {
  const Tracer& t = ctx.tracer;
  const LayerCounts& c = ctx.layers;
  auto per_item = [&](const char* name) { return t.Totals(name).NsPerItem(); };
  auto per_call = [&](const char* name) { return t.Totals(name).NsPerCall(); };
  auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  std::vector<Metric> m;
  m.push_back({"workload.sample_key_ns", per_item("workload.sample_key"),
               "ns"});
  for (int o = 0; o < 3; ++o) {
    const std::string ov = kOverlays[o];
    const SpanTotals build = t.Totals(ov + ".build");
    m.push_back({ov + ".build_s",
                 static_cast<double>(build.total_ns) * 1e-9 / kSetupReps,
                 "s"});
    m.push_back({ov + ".responsible_ns",
                 t.Totals(ov + ".responsible").NsPerItem(), "ns"});
    m.push_back({ov + ".lookup_ns", t.Totals(ov + ".lookup").NsPerCall(),
                 "ns"});
    m.push_back({ov + ".hops_per_lookup",
                 ratio(static_cast<double>(c.direct_hops[o]),
                       static_cast<double>(c.direct_lookups[o])),
                 "hops"});
    m.push_back({ov + ".aux_hop_share",
                 ratio(static_cast<double>(c.direct_aux_hops[o]),
                       static_cast<double>(c.direct_hops[o])),
                 "ratio"});
    m.push_back({ov + ".batch_lookup_ns",
                 t.Totals(ov + ".batch_lookup").NsPerItem(), "ns"});
    double bytes = 0.0;
    int largest = 0;
    for (const auto& inst : instances) {
      if (inst->overlay_index() == o && inst->n() > largest) {
        largest = inst->n();
        bytes = inst->BytesPerNode();
      }
    }
    m.push_back({ov + ".bytes_per_node", bytes, "B"});
    m.push_back({ov + ".stabilize_all_s",
                 t.Totals(ov + ".stabilize_all").NsPerCall() * 1e-9, "s"});
    const SpanTotals leave = t.Totals(ov + ".leave");
    const SpanTotals join = t.Totals(ov + ".join");
    m.push_back({ov + ".leave_join_us",
                 ratio(static_cast<double>(leave.total_ns + join.total_ns),
                       static_cast<double>(leave.count + join.count)) *
                     1e-3,
                 "us"});
  }
  m.push_back({"auxsel.freq_record_ns", per_item("auxsel.freq_record"), "ns"});
  m.push_back({"auxsel.sketch_record_ns", per_item("auxsel.sketch_record"),
               "ns"});
  m.push_back({"auxsel.selection_input_us",
               per_call("auxsel.selection_input") * 1e-3, "us"});
  m.push_back({"auxsel.candidates_per_node",
               ratio(static_cast<double>(c.candidates),
                     static_cast<double>(c.selections)),
               "count"});
  for (const char* ov : kOverlays) {
    const std::string name = std::string("auxsel.") + ov + ".select";
    m.push_back({name + "_us", t.Totals(name).NsPerCall() * 1e-3, "us"});
  }
  m.push_back({"auxsel.install_us", per_call("auxsel.install") * 1e-3, "us"});
  m.push_back({"latency.hop_ns", per_item("latency.hop"), "ns"});
  m.push_back({"experiments.batch_speedup",
               ratio(static_cast<double>(c.batch_ref_direct_ns),
                     static_cast<double>(c.batch_ref_batched_ns)),
               "ratio"});
  m.push_back({"net.wire.encode_ns", per_item("net.wire.encode"), "ns"});
  m.push_back({"net.wire.decode_ns", per_item("net.wire.decode"), "ns"});
  const SpanTotals crc = t.Totals("net.wire.crc32");
  m.push_back({"net.wire.crc32_mb_per_s",
               ratio(static_cast<double>(crc.items) * 1e3,
                     static_cast<double>(crc.total_ns)),
               "MB/s"});
  const SpanTotals handle = t.Totals("net.actor.handle");
  const SpanTotals client = t.Totals("net.client.done");
  const SpanTotals run = t.Totals("net.bus.run");
  m.push_back({"net.actor.handle_ns", handle.NsPerCall(), "ns"});
  m.push_back({"net.bus.dispatch_ns",
               ratio(static_cast<double>(run.total_ns - handle.total_ns -
                                         client.total_ns),
                     static_cast<double>(handle.count + client.count)),
               "ns"});
  m.push_back({"net.bus.run_s", run.NsPerCall() * 1e-9, "s"});
  m.push_back({"net.bus.ticks_per_round",
               ratio(static_cast<double>(c.bus_ticks),
                     static_cast<double>(c.bus_runs)),
               "ticks"});
  m.push_back({"net.actor.retries_per_lookup",
               ratio(static_cast<double>(c.bus_retries),
                     static_cast<double>(c.bus_lookups)),
               "count"});
  m.push_back({"net.wire.frame_bytes",
               ratio(static_cast<double>(c.bus_bytes),
                     static_cast<double>(c.bus_frames)),
               "B"});
  m.push_back({"net.bus.frames_per_lookup",
               ratio(static_cast<double>(c.bus_frames),
                     static_cast<double>(c.bus_lookups)),
               "count"});
  m.push_back({"net.peer_cache.put_us", per_call("net.peer_cache.put") * 1e-3,
               "us"});
  m.push_back({"net.peer_cache.sync_ms",
               per_call("net.peer_cache.sync") * 1e-6, "ms"});
  m.push_back({"net.peer_cache.open_ms",
               per_call("net.peer_cache.open") * 1e-6, "ms"});
  m.push_back({"net.peer_cache.get_us", per_call("net.peer_cache.get") * 1e-3,
               "us"});
  return m;
}

void PrintOps(const Ops& ops) {
  const std::pair<const char*, const OpCount*> rows[] = {
      {"warmup_queries", &ops.warmup},
      {"selections", &ops.selections},
      {"direct_lookups", &ops.direct},
      {"batched_lookups", &ops.batched},
      {"bus_lookups", &ops.bus},
      {"frames", &ops.frames},
      {"cache_records_written", &ops.records_written},
      {"cache_records_restored", &ops.records_restored},
  };
  for (const auto& [name, count] : rows) {
    std::printf("ops %-24s attempted=%llu failed=%llu\n", name,
                static_cast<unsigned long long>(count->attempted),
                static_cast<unsigned long long>(count->failed));
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: peercache_perfbench --workload "
                 "paper-stable|scale-route|bus-restart --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n");
    return 2;
  }
  const std::vector<Spec> parts = WorkloadParts(args.workload);
  Ctx ctx(args.trace == 1, args.workdir, args.seed);

  // Set-up, repeated; the last build is the one the rounds run on.
  std::vector<double> setup_times;
  Instances instances;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    instances.clear();
    const int64_t t0 = NowNs();
    instances = BuildAll(parts, ctx);
    setup_times.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  const double setup_s = Median(setup_times);
  for (auto& instance : instances) instance->PrepareChecks();

  // Rounds. Round 0 warms caches. In the traced run, odd rounds are traced
  // and even ones are not, so the tracing overhead compares rounds from
  // the same stretch of the run.
  const bool traced = args.trace == 1;
  const int min_rounds = traced ? 5 : 3;
  const int64_t deadline = NowNs() + int64_t{args.seconds} * 1000000000;
  std::vector<RoundStats> rounds;
  std::vector<double> traced_ns, untraced_ns;
  while (static_cast<int>(rounds.size()) < min_rounds || NowNs() < deadline) {
    const int r = static_cast<int>(rounds.size());
    rounds.emplace_back();
    RoundStats& stats = rounds.back();
    ctx.round = &stats;
    ctx.round_index = r;
    const bool trace_round = traced && r % 2 == 1;
    ctx.tracer.set_enabled(trace_round);
    ctx.capture = traced && r == 1;
    const int64_t t0 = NowNs();
    for (auto& instance : instances) instance->RunRound(ctx);
    stats.total_ns = NowNs() - t0;
    if (r > 0) {
      (trace_round ? traced_ns : untraced_ns)
          .push_back(static_cast<double>(stats.total_ns));
    }
    // Every round repeats the same operations on the same inputs, so its
    // deterministic outcome must equal the first round's.
    const RoundStats& first = rounds.front();
    if (r > 0) {
      if (stats.hops != first.hops || stats.routed != first.routed ||
          stats.wire_bytes != first.wire_bytes ||
          stats.latency_sum != first.latency_sum) {
        ctx.Fail("round " + std::to_string(r) +
                 " did not reproduce round 0's outcome");
      }
      stats.latencies.clear();
      stats.latencies.shrink_to_fit();
    }
    if (ctx.check_failures > 0) break;
  }

  // Checksum oracle on the sampled frames.
  uint64_t bad_frames = 0;
  for (const auto& frame : ctx.captures.frames) {
    if (!oracle::FrameChecksumOk(frame.data(), frame.size(),
                                 oracle::kPolyIeee)) {
      ++bad_frames;
    }
  }
  if (bad_frames > 0) {
    ctx.ops.frames.failed += bad_frames;
    ctx.Fail(std::to_string(bad_frames) +
             " sampled frames failed the checksum oracle");
  }

  std::vector<Metric> metrics;
  if (traced) {
    ctx.tracer.set_enabled(true);
    ReplayInnerCalls(ctx, instances, args.seed);
    metrics = PerLayer(ctx, instances);
  } else {
    metrics = EndToEnd(rounds, instances, setup_s);
  }

  const uint64_t attempted =
      ctx.ops.warmup.attempted + ctx.ops.selections.attempted +
      ctx.ops.direct.attempted + ctx.ops.batched.attempted +
      ctx.ops.bus.attempted + ctx.ops.frames.attempted +
      ctx.ops.records_written.attempted + ctx.ops.records_restored.attempted;
  const uint64_t failed =
      ctx.ops.warmup.failed + ctx.ops.selections.failed +
      ctx.ops.direct.failed + ctx.ops.batched.failed + ctx.ops.bus.failed +
      ctx.ops.frames.failed + ctx.ops.records_written.failed +
      ctx.ops.records_restored.failed;
  const bool correct = ctx.check_failures == 0 && failed == 0;

  std::printf("workload %s seed %llu rounds %zu setup reps",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), rounds.size());
  for (double s : setup_times) std::printf(" %.4fs", s);
  std::printf("\n");
  for (size_t r = 0; r < rounds.size(); ++r) {
    const RoundStats& x = rounds[r];
    std::printf(
        "round %zu %.4fs warm %.4f select %.4f direct %.4f/%.4f/%.4f "
        "batch %.4f bus %.4f checkpoint %.4f restart %.4f\n",
        r, x.total_ns * 1e-9, x.warm_ns * 1e-9, x.select_ns * 1e-9,
        x.direct_ns[0] * 1e-9, x.direct_ns[1] * 1e-9, x.direct_ns[2] * 1e-9,
        x.batch_ns * 1e-9, x.bus_ns * 1e-9, x.checkpoint_ns * 1e-9,
        x.restart_ns * 1e-9);
  }
  PrintOps(ctx.ops);
  for (const std::string& note : ctx.failure_notes) {
    std::printf("CHECK FAILED: %s\n", note.c_str());
  }
  if (traced) {
    std::printf("trace overhead %.2f%% (median of %zu traced rounds vs "
                "median of %zu untraced), %zu spans kept\n",
                100.0 * (Median(traced_ns) / Median(untraced_ns) - 1.0),
                traced_ns.size(), untraced_ns.size(), ctx.tracer.kept());
    for (const auto& [layer, self_ns] : ctx.tracer.SelfNsByLayer()) {
      std::printf("self %-28s %12.6f s\n", layer.c_str(),
                  static_cast<double>(self_ns) * 1e-9);
    }
    const std::string path = args.workdir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!ctx.tracer.WriteJsonLines(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", path.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
