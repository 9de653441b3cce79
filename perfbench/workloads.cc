#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "api/genie.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "inputs.h"
#include "lsh/lsh_transformer.h"
#include "net/frame.h"
#include "net/wire.h"
#include "plan/index_stats.h"
#include "reference.h"
#include "sim/device.h"

namespace perfbench {

namespace {

using genie::Engine;
using genie::EngineConfig;
using genie::QueryHits;
using genie::SearchProfile;
using genie::SearchRequest;
using genie::SearchResult;

constexpr uint32_t kK = 10;
constexpr double kWarmupS = 1.0;
/// Seeded sample sizes of the exact (brute-force) checks.
constexpr uint32_t kRecallSample = 64;
constexpr uint32_t kTopKSample = 64;
constexpr uint32_t kReopenSample = 256;
/// ann_stream: mean recall@10 against exact kNN must stay at or above this
/// (README, "Recall floor").
constexpr double kRecallFloor = 0.50;
/// Seeded-stream tags of the sample choices (distinct from inputs.cc's).
constexpr uint64_t kSampleStream = 0x5a3b1e;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::vector<uint32_t> SampleIds(uint64_t seed, uint32_t n, uint32_t count) {
  std::vector<uint32_t> ids = SeededPermutation(seed ^ kSampleStream, n);
  ids.resize(std::min(count, n));
  return ids;
}

/// Stage seconds of a profile that lie on the caller's blocking path when
/// the call is not pipelined.
double BlockingStageSeconds(const SearchProfile& p) {
  return p.query_transfer_s + p.match_s + p.select_s + p.merge_s + p.verify_s;
}

/// Engine-wide monotone totals, folded from SearchResult::cumulative by
/// element-wise max (results of concurrent callers arrive in any order).
struct Totals {
  double match_s = 0;
  double select_s = 0;
  double query_transfer_s = 0;
  double prepare_s = 0;
  double merge_s = 0;
  double overlap_s = 0;
  double scatter_s = 0;
  double call_s = 0;
  double network_s = 0;
  double worker_match_s = 0;
  double worker_select_s = 0;
  double request_bytes = 0;
  double response_bytes = 0;
  double calls = 0;
  double wins = 0;
  double failures = 0;

  void Fold(const SearchProfile& c) {
    Totals t;
    t.match_s = c.match_s;
    t.select_s = c.select_s;
    t.query_transfer_s = c.query_transfer_s;
    t.prepare_s = c.prepare_seconds;
    t.merge_s = c.merge_s;
    t.overlap_s = c.overlap_seconds;
    t.scatter_s = c.scatter_seconds;
    for (const genie::WorkerProfile& worker : c.per_worker) {
      t.call_s += worker.call_s;
      t.network_s += worker.network_s;
      t.worker_match_s += worker.worker_match_s;
      t.worker_select_s += worker.worker_select_s;
      t.request_bytes += static_cast<double>(worker.request_bytes);
      t.response_bytes += static_cast<double>(worker.response_bytes);
      t.calls += static_cast<double>(worker.calls);
      t.wins += static_cast<double>(worker.wins);
      t.failures += static_cast<double>(worker.failures);
    }
    Fold(t);
  }

  void Fold(const Totals& o) {
    auto mx = [](double* a, double b) { *a = std::max(*a, b); };
    mx(&match_s, o.match_s);
    mx(&select_s, o.select_s);
    mx(&query_transfer_s, o.query_transfer_s);
    mx(&prepare_s, o.prepare_s);
    mx(&merge_s, o.merge_s);
    mx(&overlap_s, o.overlap_s);
    mx(&scatter_s, o.scatter_s);
    mx(&call_s, o.call_s);
    mx(&network_s, o.network_s);
    mx(&worker_match_s, o.worker_match_s);
    mx(&worker_select_s, o.worker_select_s);
    mx(&request_bytes, o.request_bytes);
    mx(&response_bytes, o.response_bytes);
    mx(&calls, o.calls);
    mx(&wins, o.wins);
    mx(&failures, o.failures);
  }

  /// Per-layer metrics of the interval between `before` and this.
  void Report(const Totals& before, std::map<std::string, double>* layer,
              bool remote) const {
    (*layer)["core.match_s"] = match_s - before.match_s;
    (*layer)["core.select_s"] = select_s - before.select_s;
    (*layer)["core.query_transfer_s"] =
        query_transfer_s - before.query_transfer_s;
    (*layer)["core.prepare_s"] = prepare_s - before.prepare_s;
    (*layer)["core.merge_s"] = merge_s - before.merge_s;
    (*layer)["api.overlap_s"] = overlap_s - before.overlap_s;
    if (!remote) return;
    // On the remote tier match/select are the workers' reported seconds.
    (*layer)["net.scatter_s"] = scatter_s - before.scatter_s;
    (*layer)["net.call_s"] = call_s - before.call_s;
    (*layer)["net.network_s"] = network_s - before.network_s;
    (*layer)["net.worker_match_s"] = worker_match_s - before.worker_match_s;
    (*layer)["net.worker_select_s"] =
        worker_select_s - before.worker_select_s;
    (*layer)["net.request_bytes"] = request_bytes - before.request_bytes;
    (*layer)["net.response_bytes"] = response_bytes - before.response_bytes;
    (*layer)["net.calls"] = calls - before.calls;
    (*layer)["net.wins"] = wins - before.wins;
  }
};

void ReportDevice(const genie::sim::DeviceStats& stats,
                  std::map<std::string, double>* layer) {
  (*layer)["sim.kernel_launches"] = static_cast<double>(stats.kernel_launches);
  (*layer)["sim.h2d_bytes"] = static_cast<double>(stats.bytes_h2d);
  (*layer)["sim.d2h_bytes"] = static_cast<double>(stats.bytes_d2h);
  (*layer)["sim.peak_device_bytes"] =
      static_cast<double>(stats.peak_allocated_bytes);
}

/// The simulated device of a workload, with `workers` pool threads ("SMs").
/// ann_stream and serve_mixed use three on the 4-core reference host, which
/// leaves a core to the load generators, the stream look-ahead and the
/// engine's own threads; with all four cores given to the device,
/// oversubscription roughly tripled the run-to-run spread of ann_stream's
/// throughput. remote_scatter uses one: each of its four loopback workers
/// gets a private device with these options, and three threads per shard
/// (twelve in all) roughly doubled the spread of its throughput and median
/// latency against one per shard, in alternating runs.
genie::sim::Device::Options BenchDeviceOptions(size_t workers) {
  genie::sim::Device::Options options;
  options.num_workers = workers;
  return options;
}

/// Timed-phase summary shared by all workloads.
struct Phase {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  uint64_t calls = 0;
  uint64_t failed = 0;
  uint64_t queries = 0;
  std::vector<double> call_ms;   // one per call
  std::vector<double> query_ms;  // one per answered query
  double residual_s = 0;         // api.unattributed_s contribution

  double wall_s() const { return Seconds(end_ns - begin_ns); }
  double qps() const {
    return wall_s() > 0 ? static_cast<double>(queries) / wall_s() : 0;
  }
};

/// End-to-end metrics of an untraced run, or the per-layer metrics of the
/// traced half plus the tracing overhead of a traced run.
void ReportPhases(const Phase& untraced,
                  const Phase* traced, double setup_s, const Tracer& tracer,
                  RunReport* report) {
  report->attempted += untraced.calls + (traced ? traced->calls : 0);
  report->failed += untraced.failed + (traced ? traced->failed : 0);
  if (traced == nullptr) {
    report->Set("setup_s", setup_s, "s");
    report->Set("qps", untraced.qps(), "queries/s");
    report->Set("latency_p50_ms", Percentile(untraced.call_ms, 50), "ms");
    report->Set("latency_p99_ms", Percentile(untraced.query_ms, 99), "ms");
    report->Set("peak_rss_mb", PeakRssMb(), "MiB");
    return;
  }
  report->layer["api.queries"] = static_cast<double>(traced->queries);
  report->layer["api.phase_s"] = traced->wall_s();
  report->layer["api.unattributed_s"] = traced->residual_s;
  report->layer["trace.spans"] = static_cast<double>(tracer.size());
  if (untraced.qps() > 0) {
    report->layer["trace.overhead_pct"] =
        100.0 * (untraced.qps() - traced->qps()) / untraced.qps();
  }
}

/// The per-layer metrics taken from span self times (set-up calls and the
/// direct lower-layer calls); names no span was recorded for stay unset.
void ReportSpans(const Tracer& tracer, std::map<std::string, double>* layer) {
  static const std::pair<const char*, const char*> kSpanMetrics[] = {
      {"api.create", "api.create_s"},
      {"api.save", "api.save_s"},
      {"api.open", "api.open_s"},
      {"index.build", "index.build_s"},
      {"plan.stats", "plan.stats_s"},
      {"index.serialize", "index.serialize_s"},
  };
  const auto self = tracer.SelfTimes();
  for (const auto& [span, metric] : kSpanMetrics) {
    auto it = self.find(span);
    if (it != self.end()) (*layer)[metric] = it->second.self_s;
  }
}

/// Direct timed calls into the index and plan layers on the documents
/// inputs: the build the engine runs at Create, the planner's stats pass
/// and the SaveIndexToBuffer image pushed to remote shards.
genie::InvertedIndex BuildDocsIndexDirect(const std::vector<Doc>& docs,
                                          Tracer* tracer,
                                          std::map<std::string, double>* layer,
                                          RunReport* report) {
  genie::InvertedIndex index;
  {
    ScopedSpan span(tracer, "index.build");
    genie::InvertedIndexBuilder builder(DocsInputs::kVocabulary);
    for (uint32_t id = 0; id < docs.size(); ++id) {
      const Doc tokens = Dedup(docs[id]);
      builder.AddObject(id, std::span<const genie::Keyword>(tokens));
    }
    builder.EnsureNumObjects(static_cast<uint32_t>(docs.size()));
    auto built = std::move(builder).Build();
    if (!built.ok()) {
      report->Fail("direct index build: " + built.status().ToString());
      return index;
    }
    index = std::move(*built);
  }
  {
    ScopedSpan span(tracer, "plan.stats");
    const genie::plan::IndexStats stats = genie::plan::ComputeIndexStats(index);
    (*layer)["plan.volume_skew"] = stats.VolumeSkew();
  }
  std::string image;
  {
    ScopedSpan span(tracer, "index.serialize");
    const genie::Status st = genie::SaveIndexToBuffer(index, false, &image);
    if (!st.ok()) report->Fail("SaveIndexToBuffer: " + st.ToString());
  }
  (*layer)["index.bundle_bytes"] = static_cast<double>(image.size());
  return index;
}

}  // namespace

void RunReport::Set(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void RunReport::Fail(const std::string& message) {
  correct = false;
  if (errors.size() < 8) errors.push_back(message);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // Set-up.
      {"api.create_s", "s"},
      {"api.save_s", "s"},
      {"api.open_s", "s"},
      {"index.build_s", "s"},
      {"plan.stats_s", "s"},
      {"plan.volume_skew", "ratio"},
      {"index.serialize_s", "s"},
      {"index.bundle_bytes", "bytes"},
      // Query path.
      {"api.queries", "count"},
      {"api.phase_s", "s"},
      {"api.unattributed_s", "s"},
      {"api.overlap_s", "s"},
      {"api.recall_at_10", "ratio"},
      {"lsh.query_hash_s", "s"},
      {"core.query_transfer_s", "s"},
      {"core.prepare_s", "s"},
      {"core.match_s", "s"},
      {"core.select_s", "s"},
      {"core.merge_s", "s"},
      {"sim.kernel_launches", "count"},
      {"sim.h2d_bytes", "bytes"},
      {"sim.d2h_bytes", "bytes"},
      {"sim.peak_device_bytes", "bytes"},
      // Serving and mutation.
      {"serve.queue_p50_ms", "ms"},
      {"serve.cache_hits", "count"},
      {"serve.cache_misses", "count"},
      {"serve.dedup_followers", "count"},
      {"serve.batches", "count"},
      {"serve.coalesced_requests", "count"},
      {"serve.executed_queries", "count"},
      {"api.insert_s", "s"},
      {"api.remove_s", "s"},
      {"api.write_latency_p50_ms", "ms"},
      {"api.write_latency_p95_ms", "ms"},
      {"index.compactions", "count"},
      {"index.compact_s", "s"},
      {"index.compact_pause_s", "s"},
      // Remote scatter-gather.
      {"net.scatter_s", "s"},
      {"net.call_s", "s"},
      {"net.network_s", "s"},
      {"net.codec_s", "s"},
      {"net.worker_match_s", "s"},
      {"net.worker_select_s", "s"},
      {"net.request_bytes", "bytes"},
      {"net.response_bytes", "bytes"},
      {"net.calls", "count"},
      {"net.wins", "count"},
      // The trace itself.
      {"trace.spans", "count"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

// ---------------------------------------------------------------------------
// ann_stream
// ---------------------------------------------------------------------------

RunReport RunAnnStream(const RunOptions& o, Tracer* tracer) {
  using P = PointsInputs;
  constexpr uint32_t kChunk = 1024;
  constexpr uint32_t kChunksPerCall = 3;
  constexpr uint32_t kCallQueries = kChunk * kChunksPerCall;
  static_assert(P::kQueries % kCallQueries == 0);
  constexpr uint32_t kSets = P::kQueries / kCallQueries;

  RunReport report;
  Tracer off(false);
  Tracer* setup_tracer = o.trace ? tracer : &off;
  const PointsInputs in = MakePointsInputs(o.seed);
  // The stream's calls cycle over the query pool in fixed slices.
  std::vector<genie::data::PointMatrix> sets;
  for (uint32_t s = 0; s < kSets; ++s) {
    genie::data::PointMatrix set(kCallQueries, P::kDim);
    for (uint32_t q = 0; q < kCallQueries; ++q) {
      const auto src = in.queries.row(s * kCallQueries + q);
      std::copy(src.begin(), src.end(), set.mutable_row(q).begin());
    }
    sets.push_back(std::move(set));
  }

  genie::sim::Device device(BenchDeviceOptions(3));
  EngineConfig config;
  config.Points(&in.points).K(kK).ExactRerank(true).Device(&device);
  const std::string bundle =
      o.out_dir + "/ann_stream-" + std::to_string(o.seed) + ".bundle";

  // --- Set-up: Create -> Save -> Open -> first answer. ----------------------
  const int64_t setup_begin = NowNs();
  std::unique_ptr<Engine> created;
  {
    ScopedSpan span(setup_tracer, "api.create");
    auto engine = Engine::Create(config);
    if (!engine.ok()) {
      report.Fail("Create: " + engine.status().ToString());
      return report;
    }
    created = std::move(*engine);
  }
  {
    ScopedSpan span(setup_tracer, "api.save");
    const genie::Status st = created->Save(bundle);
    if (!st.ok()) {
      report.Fail("Save: " + st.ToString());
      return report;
    }
  }
  std::unique_ptr<Engine> engine;
  {
    ScopedSpan span(setup_tracer, "api.open");
    auto opened = Engine::Open(bundle, config);
    if (!opened.ok()) {
      report.Fail("Open: " + opened.status().ToString());
      return report;
    }
    engine = std::move(*opened);
  }
  genie::data::PointMatrix first(1, P::kDim);
  std::copy(in.queries.row(0).begin(), in.queries.row(0).end(),
            first.mutable_row(0).begin());
  if (auto r = engine->Search(SearchRequest::Points(first)); !r.ok()) {
    report.Fail("first Search: " + r.status().ToString());
    return report;
  }
  const double setup_s = Seconds(NowNs() - setup_begin);
  std::error_code ec;
  const double bundle_bytes =
      static_cast<double>(std::filesystem::file_size(bundle, ec));

  // The reopened engine must answer exactly as the saved one.
  {
    genie::data::PointMatrix sample(kReopenSample, P::kDim);
    for (uint32_t q = 0; q < kReopenSample; ++q) {
      const auto src = in.queries.row(q);
      std::copy(src.begin(), src.end(), sample.mutable_row(q).begin());
    }
    auto a = created->Search(SearchRequest::Points(sample));
    auto b = engine->Search(SearchRequest::Points(sample));
    if (!a.ok() || !b.ok()) {
      report.Fail("reopen comparison search failed");
    } else {
      for (uint32_t q = 0; q < kReopenSample; ++q) {
        const QueryHits& x = a->queries[q];
        const QueryHits& y = b->queries[q];
        bool same =
            x.hits.size() == y.hits.size() && x.threshold == y.threshold;
        for (size_t h = 0; same && h < x.hits.size(); ++h) {
          same = x.hits[h].id == y.hits[h].id &&
                 x.hits[h].match_count == y.hits[h].match_count &&
                 x.hits[h].score == y.hits[h].score;
        }
        if (!same) {
          report.Fail("reopened engine answers query " + std::to_string(q) +
                      " differently from the saved one");
          break;
        }
      }
    }
  }
  created.reset();
  std::filesystem::remove(bundle, ec);

  // --- Load: closed-loop SearchStream calls. --------------------------------
  struct Call {
    uint32_t set = 0;
    SearchResult result;
  };
  std::vector<Call> answered;
  uint32_t next_set = 0;
  uint64_t next_request = 1;
  Totals totals;
  genie::SearchStreamOptions stream;
  stream.chunk_size = kChunk;

  auto run_phase = [&](double seconds, Tracer* t, bool keep) {
    Phase phase;
    phase.begin_ns = NowNs();
    const int64_t deadline =
        phase.begin_ns + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline) {
      const uint32_t set = next_set++ % kSets;
      const uint64_t request = next_request++;
      const uint64_t call_span = t->NextId();
      const int64_t start = NowNs();
      int64_t last = start;
      std::vector<double> delivered_ms;
      auto r = engine->SearchStream(
          SearchRequest::Points(sets[set]), stream,
          [&](const genie::SearchChunk& chunk) {
            const int64_t now = NowNs();
            t->Record("api.stream_chunk", last, now, call_span, request);
            last = now;
            for (size_t q = 0; q < chunk.result.queries.size(); ++q) {
              delivered_ms.push_back(static_cast<double>(now - start) * 1e-6);
            }
            return genie::Status::OK();
          });
      const int64_t end = NowNs();
      t->RecordWithId(call_span, "api.search_stream", start, end, 0, request);
      ++phase.calls;
      if (!r.ok()) {
        ++phase.failed;
        report.Fail("SearchStream: " + r.status().ToString());
        continue;
      }
      phase.call_ms.push_back(static_cast<double>(end - start) * 1e-6);
      phase.query_ms.insert(phase.query_ms.end(), delivered_ms.begin(),
                            delivered_ms.end());
      phase.queries += r->queries.size();
      // With pipelining, a chunk's prepare overlaps the previous chunk's
      // execution, so only the execute stages block the caller.
      const SearchProfile& p = r->profile;
      phase.residual_s += Seconds(end - start) -
                          (BlockingStageSeconds(p) - p.prepare_seconds);
      totals.Fold(r->cumulative);
      if (keep) answered.push_back(Call{set, std::move(*r)});
    }
    phase.end_ns = NowNs();
    return phase;
  };

  run_phase(kWarmupS, &off, /*keep=*/false);
  Phase untraced;
  Phase traced;
  std::map<std::string, double>& layer = report.layer;
  if (!o.trace) {
    untraced = run_phase(o.seconds, &off, true);
  } else {
    untraced = run_phase(o.seconds / 2, &off, true);
    const Totals before = totals;
    device.ResetStats();
    traced = run_phase(o.seconds / 2, tracer, true);
    totals.Report(before, &layer, /*remote=*/false);
    ReportDevice(device.stats(), &layer);
  }
  engine.reset();

  // --- Checks. --------------------------------------------------------------
  uint64_t bad = 0;
  for (const Call& call : answered) {
    const genie::data::PointMatrix& queries = sets[call.set];
    for (uint32_t q = 0; q < call.result.queries.size(); ++q) {
      const QueryHits& hits = call.result.queries[q];
      std::string verdict =
          CheckPointHits(in.points, queries.row(q), hits, kK);
      const uint32_t pool_id = call.set * kCallQueries + q;
      if (verdict.empty() && in.copy_of[pool_id] != UINT32_MAX &&
          hits.hits[0].score != 0.0) {
        verdict = "exact copy of point " +
                  std::to_string(in.copy_of[pool_id]) +
                  " has no distance-0 first hit";
      }
      if (!verdict.empty() && bad++ == 0) {
        report.Fail("query " + std::to_string(pool_id) + ": " + verdict);
      }
    }
  }
  if (bad > 0) report.Fail(std::to_string(bad) + " queries answered wrongly");

  // recall@10 on a seeded sample, against exact kNN.
  double recall_sum = 0;
  double recall_sq = 0;
  uint32_t recall_n = 0;
  for (uint32_t pool_id : SampleIds(o.seed, P::kQueries, kRecallSample)) {
    const uint32_t set = pool_id / kCallQueries;
    const auto it = std::find_if(answered.begin(), answered.end(),
                                 [set](const Call& c) { return c.set == set; });
    if (it == answered.end()) continue;
    const auto query = in.queries.row(pool_id);
    const double r = Recall(it->result.queries[pool_id % kCallQueries],
                            ExactKnn(in.points, query, kK));
    recall_sum += r;
    recall_sq += r * r;
    ++recall_n;
  }
  const double recall = recall_n > 0 ? recall_sum / recall_n : 0;
  const double recall_var =
      recall_n > 1
          ? (recall_sq - recall_n * recall * recall) / (recall_n - 1)
          : 0;
  const double recall_sd = std::sqrt(std::max(0.0, recall_var));
  std::fprintf(stderr,
               "ann_stream: recall@%u = %.4f (per-query sd %.4f) over %u "
               "sampled queries\n",
               kK, recall, recall_sd, recall_n);
  if (recall_n == 0 || recall < kRecallFloor) {
    report.Fail("recall@10 " + std::to_string(recall) + " below the floor " +
                std::to_string(kRecallFloor));
  }

  ReportPhases(untraced, o.trace ? &traced : nullptr, setup_s, *tracer,
               &report);
  if (!o.trace) return report;

  // --- Traced run: direct timed calls into the lower layers. ----------------
  layer["api.recall_at_10"] = recall;
  layer["index.bundle_bytes"] = bundle_bytes;
  genie::lsh::E2LshOptions lsh_options;
  lsh_options.dim = P::kDim;
  lsh_options.num_functions = 64;  // the facade's default m
  lsh_options.seed = config.seed();
  auto family = genie::lsh::E2LshFamily::Create(lsh_options);
  if (!family.ok()) {
    report.Fail("E2LshFamily: " + family.status().ToString());
    return report;
  }
  genie::lsh::LshTransformOptions transform;
  transform.rehash_domain = 8192;  // the facade's default for points
  transform.seed = config.seed();
  const genie::lsh::LshTransformer transformer(
      std::shared_ptr<const genie::lsh::VectorLshFamily>(std::move(*family)),
      transform);
  {
    const int64_t start = NowNs();
    uint64_t keywords = 0;
    for (uint32_t q = 0; q < P::kQueries; ++q) {
      keywords += transformer.MakeQuery(in.queries.row(q)).num_items();
    }
    const int64_t end = NowNs();
    tracer->Record("lsh.make_query", start, end);
    if (keywords == 0) report.Fail("MakeQuery produced no keywords");
    layer["lsh.query_hash_s"] = Seconds(end - start) / P::kQueries *
                                static_cast<double>(traced.queries);
  }
  genie::InvertedIndex index;
  {
    ScopedSpan span(tracer, "index.build");
    auto built = transformer.BuildIndex(in.points);
    if (!built.ok()) {
      report.Fail("direct BuildIndex: " + built.status().ToString());
      return report;
    }
    index = std::move(*built);
  }
  {
    ScopedSpan span(tracer, "plan.stats");
    layer["plan.volume_skew"] =
        genie::plan::ComputeIndexStats(index, P::kDim * sizeof(float))
            .VolumeSkew();
  }
  {
    ScopedSpan span(tracer, "index.serialize");
    std::string image;
    if (!genie::SaveIndexToBuffer(index, false, &image).ok()) {
      report.Fail("SaveIndexToBuffer failed");
    }
  }
  ReportSpans(*tracer, &layer);
  return report;
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

RunReport RunServeMixed(const RunOptions& o, Tracer* tracer) {
  using W = WriterSchedule;
  constexpr uint32_t kReaders = 3;

  RunReport report;
  Tracer off(false);
  Tracer* setup_tracer = o.trace ? tracer : &off;
  const DocsInputs in = MakeDocsInputs(o.seed);
  const WriterSchedule writes = MakeWriterSchedule(o.seed);
  const ReaderSchedule reads =
      MakeReaderSchedule(o.seed, kReaders, DocsInputs::kPoolSize);
  std::vector<Doc> pool_dedup;
  for (const Doc& q : in.pool) pool_dedup.push_back(Dedup(q));

  genie::sim::Device device(BenchDeviceOptions(3));
  EngineConfig config;
  config.Documents(&in.docs)
      .K(kK)
      .Device(&device)
      .Serving(genie::ServingOptions{})
      .DeltaSealThreshold(256)
      .AutoCompactSegments(4);

  auto one = [&in](uint32_t q) {
    return SearchRequest::Documents(
        std::span<const std::vector<uint32_t>>(&in.pool[q], 1));
  };

  // --- Set-up: Create -> first answer. --------------------------------------
  std::atomic<uint64_t> requests{0};
  const int64_t setup_begin = NowNs();
  std::unique_ptr<Engine> engine;
  {
    ScopedSpan span(setup_tracer, "api.create");
    auto created = Engine::Create(config);
    if (!created.ok()) {
      report.Fail("Create: " + created.status().ToString());
      return report;
    }
    engine = std::move(*created);
  }
  ++requests;
  if (auto r = engine->Search(one(0)); !r.ok()) {
    report.Fail("first Search: " + r.status().ToString());
    return report;
  }
  const double setup_s = Seconds(NowNs() - setup_begin);

  // --- Readers: closed loop, 1-query requests, skewed over the pool. -------
  struct Read {
    int64_t submit_ns = 0;
    int64_t done_ns = 0;
    uint32_t query = 0;
    uint8_t phase = 0;  // 0 warm-up, 1 untraced, 2 traced
    bool ok = false;
    bool cache_hit = false;
    double queue_s = 0;
    double stage_s = 0;
    QueryHits hits;
  };
  std::atomic<int> phase{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<Read>> read_log(kReaders);
  // Engine totals per reader: up to the traced half, and over the run.
  std::vector<Totals> before_traced(kReaders);
  std::vector<Totals> after_traced(kReaders);
  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const std::vector<uint32_t>& draws = reads.draws[r];
      std::vector<Read>& log = read_log[r];
      for (size_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
        Read read;
        read.query = draws[i % draws.size()];
        read.phase = static_cast<uint8_t>(phase.load());
        Tracer* t = read.phase == 2 ? tracer : &off;
        const uint64_t request = ++requests;
        read.submit_ns = NowNs();
        auto result = engine->Search(one(read.query).Tenant(r));
        read.done_ns = NowNs();
        t->Record("api.search", read.submit_ns, read.done_ns, 0, request);
        read.ok = result.ok();
        if (read.ok && result->queries.size() == 1) {
          const SearchProfile& p = result->profile;
          read.cache_hit = p.cache_hits > 0;
          read.queue_s = p.queue_seconds;
          read.stage_s = read.cache_hit ? 0 : BlockingStageSeconds(p);
          read.hits = std::move(result->queries[0]);
          // A cache hit's cumulative is its own profile, not the totals.
          if (!read.cache_hit) {
            if (read.phase < 2) before_traced[r].Fold(result->cumulative);
            after_traced[r].Fold(result->cumulative);
          }
        } else {
          read.ok = false;
        }
        log.push_back(std::move(read));
      }
    });
  }

  // --- Writer: fixed open-loop schedule over the whole timed phase. --------
  struct Step {
    int64_t due_ns = 0;
    int64_t done_ns = 0;
    bool ok = false;
    std::vector<genie::ObjectId> inserted;
    std::vector<genie::ObjectId> removed;
  };
  std::vector<Step> steps;
  double insert_s = 0;
  double remove_s = 0;
  double compact_s = 0;
  double pause_s = 0;
  uint64_t compactions_seen = 0;
  const uint64_t compactions_before = engine->mutation_stats().compactions;
  auto writer_body = [&](int64_t begin_ns, double seconds) {
    const int64_t period = static_cast<int64_t>(W::kPeriodS * 1e9);
    const int64_t end_ns = begin_ns + static_cast<int64_t>(seconds * 1e9);
    size_t base_next = 0;
    compactions_seen = compactions_before;
    for (uint32_t s = 0; s < W::kMaxSteps; ++s) {
      Step step;
      step.due_ns = begin_ns + period * s;
      if (step.due_ns >= end_ns) break;
      while (NowNs() < step.due_ns) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(step.due_ns - NowNs()));
      }
      Tracer* t = phase.load() == 2 ? tracer : &off;
      const int64_t t0 = NowNs();
      auto ids = engine->Insert(genie::InsertRequest::Documents(
          std::span<const std::vector<uint32_t>>(writes.inserts[s])));
      const int64_t t1 = NowNs();
      t->Record("api.insert", t0, t1);
      insert_s += Seconds(t1 - t0);
      step.ok = ids.ok();
      if (step.ok) step.inserted = std::move(*ids);
      if (s >= W::kRecycleLag) {
        const std::vector<genie::ObjectId>& old =
            steps[s - W::kRecycleLag].inserted;
        for (size_t i = 0; i < W::kRecyclePerStep && i < old.size(); ++i) {
          step.removed.push_back(old[i]);
        }
      }
      while (step.removed.size() < W::kRemovesPerStep) {
        step.removed.push_back(writes.base_victims[base_next++]);
      }
      const int64_t t2 = NowNs();
      const genie::Status st = engine->Remove(step.removed);
      step.done_ns = NowNs();
      t->Record("api.remove", t2, step.done_ns);
      remove_s += Seconds(step.done_ns - t2);
      step.ok = step.ok && st.ok();
      const genie::MutationStats m = engine->mutation_stats();
      if (m.compactions > compactions_seen) {
        compact_s += m.last_compact_seconds;
        pause_s += m.last_pause_seconds;
        compactions_seen = m.compactions;
      }
      steps.push_back(std::move(step));
    }
  };

  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
  const double first_half = o.trace ? o.seconds / 2 : o.seconds;
  const int64_t timed_begin = NowNs();
  phase.store(1);
  std::thread writer(writer_body, timed_begin, o.seconds);
  int64_t switch_ns = 0;
  genie::ServingStats serving_before{};
  genie::ServingStats serving_after{};
  if (o.trace) {
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(timed_begin)) +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(first_half)));
    serving_before = engine->serving_stats();
    device.ResetStats();
    switch_ns = NowNs();
    phase.store(2);
  }
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(timed_begin)) +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(o.seconds)));
  const int64_t timed_end = NowNs();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  writer.join();
  if (o.trace) {
    serving_after = engine->serving_stats();
    ReportDevice(device.stats(), &report.layer);
  }

  // --- Phases from the logs. ------------------------------------------------
  Phase phases[3];
  phases[1].begin_ns = timed_begin;
  phases[1].end_ns = o.trace ? switch_ns : timed_end;
  phases[2].begin_ns = switch_ns;
  phases[2].end_ns = timed_end;
  std::vector<double> queue_ms;
  for (const std::vector<Read>& log : read_log) {
    for (const Read& read : log) {
      if (read.phase == 0) continue;
      Phase& p = phases[read.phase];
      ++p.calls;
      if (!read.ok) {
        ++p.failed;
        continue;
      }
      const double ms =
          static_cast<double>(read.done_ns - read.submit_ns) * 1e-6;
      p.call_ms.push_back(ms);
      p.query_ms.push_back(ms);
      if (read.done_ns <= p.end_ns) ++p.queries;
      p.residual_s += Seconds(read.done_ns - read.submit_ns) - read.queue_s -
                      read.stage_s;
      if (read.phase == 2 && !read.cache_hit) {
        queue_ms.push_back(read.queue_s * 1e3);
      }
    }
  }

  std::vector<double> write_ms;
  uint64_t inserted = 0;
  uint64_t removed = 0;
  for (const Step& step : steps) {
    ++report.attempted;
    if (!step.ok) {
      ++report.failed;
      report.Fail("writer step failed");
    }
    write_ms.push_back(static_cast<double>(step.done_ns - step.due_ns) * 1e-6);
    inserted += step.inserted.size();
    removed += step.removed.size();
  }
  if (steps.size() < 200) {
    report.Fail("writer ran " + std::to_string(steps.size()) +
                " steps, fewer than 200");
  }

  // --- Checks. --------------------------------------------------------------
  LiveSetModel model(in.docs);
  for (size_t s = 0; s < steps.size(); ++s) {
    for (size_t i = 0; i < steps[s].inserted.size(); ++i) {
      model.Insert(steps[s].inserted[i], writes.inserts[s][i]);
    }
  }
  for (const Step& step : steps) {
    for (genie::ObjectId id : step.removed) model.Remove(id, step.done_ns);
  }
  uint64_t bad = 0;
  for (const std::vector<Read>& log : read_log) {
    for (const Read& read : log) {
      if (!read.ok) continue;
      const std::string verdict =
          model.CheckHits(pool_dedup[read.query], read.hits, read.submit_ns);
      if (!verdict.empty() && bad++ == 0) {
        report.Fail("request for pool query " + std::to_string(read.query) +
                    ": " + verdict);
      }
    }
  }
  if (bad > 0) report.Fail(std::to_string(bad) + " requests answered wrongly");

  {
    ScopedSpan span(setup_tracer, "api.flush");
    const genie::Status st = engine->Flush();
    if (!st.ok()) report.Fail("Flush: " + st.ToString());
  }
  for (uint32_t q : SampleIds(o.seed, DocsInputs::kPoolSize, kTopKSample)) {
    ++requests;
    const int64_t submit = NowNs();
    auto r = engine->Search(one(q));
    if (!r.ok() || r->queries.size() != 1) {
      report.Fail("post-flush Search failed");
      continue;
    }
    std::string verdict = model.CheckHits(pool_dedup[q], r->queries[0], submit);
    if (verdict.empty()) {
      verdict = CheckTopK(r->queries[0],
                          BruteForceTopK(model, pool_dedup[q], kK));
    }
    if (!verdict.empty()) {
      report.Fail("post-flush pool query " + std::to_string(q) + ": " +
                  verdict);
    }
  }

  const genie::ServingStats serving = engine->serving_stats();
  if (serving.submitted != requests.load()) {
    report.Fail("ServingStats.submitted " + std::to_string(serving.submitted) +
                " != requests sent " + std::to_string(requests.load()));
  }
  if (serving.submitted !=
      serving.cache_hits + serving.cache_misses + serving.dedup_followers) {
    report.Fail("ServingStats: submitted != hits + misses + dedup followers");
  }
  if (serving.rejected != 0) report.Fail("ServingStats: requests rejected");
  const genie::MutationStats mutation = engine->mutation_stats();
  if (mutation.inserts != inserted || mutation.removes != removed) {
    report.Fail("MutationStats inserts/removes " +
                std::to_string(mutation.inserts) + "/" +
                std::to_string(mutation.removes) + " != writer's " +
                std::to_string(inserted) + "/" + std::to_string(removed));
  }
  const uint64_t compactions = compactions_seen - compactions_before;
  uint64_t slow = 0;
  double slowest_ms = 0;
  for (const std::vector<Read>& log : read_log) {
    for (const Read& read : log) {
      const double ms =
          static_cast<double>(read.done_ns - read.submit_ns) * 1e-6;
      slowest_ms = std::max(slowest_ms, ms);
      if (ms > 25.0) ++slow;
    }
  }
  std::fprintf(stderr,
               "serve_mixed: %zu writer steps, %llu compactions, cache hit "
               "rate %.3f, %llu requests over 25 ms (slowest %.1f ms), "
               "writer p95 %.2f ms\n",
               steps.size(), static_cast<unsigned long long>(compactions),
               serving.submitted > 0
                   ? static_cast<double>(serving.cache_hits) / serving.submitted
                   : 0.0,
               static_cast<unsigned long long>(slow), slowest_ms,
               Percentile(write_ms, 95));
  engine.reset();

  ReportPhases(phases[1], o.trace ? &phases[2] : nullptr, setup_s, *tracer,
               &report);
  if (!o.trace) return report;

  std::map<std::string, double>& layer = report.layer;
  Totals before;
  Totals after;
  for (uint32_t r = 0; r < kReaders; ++r) {
    before.Fold(before_traced[r]);
    after.Fold(after_traced[r]);
  }
  after.Report(before, &layer, /*remote=*/false);
  layer["serve.queue_p50_ms"] = Percentile(queue_ms, 50);
  layer["serve.cache_hits"] =
      static_cast<double>(serving_after.cache_hits - serving_before.cache_hits);
  layer["serve.cache_misses"] = static_cast<double>(
      serving_after.cache_misses - serving_before.cache_misses);
  layer["serve.dedup_followers"] = static_cast<double>(
      serving_after.dedup_followers - serving_before.dedup_followers);
  layer["serve.batches"] =
      static_cast<double>(serving_after.batches - serving_before.batches);
  layer["serve.coalesced_requests"] = static_cast<double>(
      serving_after.coalesced_requests - serving_before.coalesced_requests);
  layer["serve.executed_queries"] = static_cast<double>(
      serving_after.executed_queries - serving_before.executed_queries);
  layer["api.insert_s"] = insert_s;
  layer["api.remove_s"] = remove_s;
  layer["api.write_latency_p50_ms"] = Percentile(write_ms, 50);
  layer["api.write_latency_p95_ms"] = Percentile(write_ms, 95);
  layer["index.compactions"] = static_cast<double>(compactions);
  layer["index.compact_s"] = compact_s;
  layer["index.compact_pause_s"] = pause_s;
  BuildDocsIndexDirect(in.docs, tracer, &layer, &report);
  ReportSpans(*tracer, &layer);
  return report;
}

// ---------------------------------------------------------------------------
// remote_scatter
// ---------------------------------------------------------------------------

RunReport RunRemoteScatter(const RunOptions& o, Tracer* tracer) {
  constexpr uint32_t kShards = 4;
  constexpr uint32_t kBatch = 32;
  static_assert(DocsInputs::kPoolSize % kBatch == 0);
  constexpr uint32_t kBatches = DocsInputs::kPoolSize / kBatch;

  RunReport report;
  Tracer off(false);
  Tracer* setup_tracer = o.trace ? tracer : &off;
  const DocsInputs in = MakeDocsInputs(o.seed);
  // Batches of distinct pool queries in a seeded order.
  const std::vector<uint32_t> order =
      SeededPermutation(o.seed ^ (kSampleStream << 1), DocsInputs::kPoolSize);
  std::vector<std::vector<Doc>> batches(kBatches);
  std::vector<std::vector<Doc>> batches_dedup(kBatches);
  for (uint32_t i = 0; i < DocsInputs::kPoolSize; ++i) {
    batches[i / kBatch].push_back(in.pool[order[i]]);
    batches_dedup[i / kBatch].push_back(Dedup(in.pool[order[i]]));
  }
  LiveSetModel model(in.docs);

  genie::sim::Device device(BenchDeviceOptions(1));
  EngineConfig config;
  config.Documents(&in.docs).K(kK).Device(&device).Remote(
      genie::net::RemoteOptions::Loopback(kShards));

  // --- Set-up: Create (shards pushed to the workers) -> first answer. ------
  uint64_t engine_calls = 0;
  const int64_t setup_begin = NowNs();
  std::unique_ptr<Engine> engine;
  {
    ScopedSpan span(setup_tracer, "api.create");
    auto created = Engine::Create(config);
    if (!created.ok()) {
      report.Fail("Create: " + created.status().ToString());
      return report;
    }
    engine = std::move(*created);
  }
  ++engine_calls;
  if (auto r = engine->Search(SearchRequest::Documents(batches[0])); !r.ok()) {
    report.Fail("first Search: " + r.status().ToString());
    return report;
  }
  const double setup_s = Seconds(NowNs() - setup_begin);

  // --- Load: one closed-loop caller, 32-query batches. ----------------------
  uint32_t next_batch = 0;
  uint64_t next_request = 1;
  uint64_t bad = 0;
  Totals totals;
  SearchResult last_result;
  auto run_phase = [&](double seconds, Tracer* t) {
    Phase phase;
    phase.begin_ns = NowNs();
    const int64_t deadline =
        phase.begin_ns + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline) {
      const uint32_t b = next_batch++ % kBatches;
      const uint64_t request = next_request++;
      const int64_t start = NowNs();
      auto r = engine->Search(SearchRequest::Documents(batches[b]));
      const int64_t end = NowNs();
      t->Record("api.search", start, end, 0, request);
      ++engine_calls;
      ++phase.calls;
      if (!r.ok() || r->queries.size() != kBatch) {
        ++phase.failed;
        report.Fail("Search: " + r.status().ToString());
        continue;
      }
      const double ms = static_cast<double>(end - start) * 1e-6;
      phase.call_ms.push_back(ms);
      phase.query_ms.insert(phase.query_ms.end(), kBatch, ms);
      phase.queries += kBatch;
      const SearchProfile& p = r->profile;
      phase.residual_s += Seconds(end - start) - p.scatter_seconds - p.merge_s;
      for (uint32_t q = 0; q < kBatch; ++q) {
        const std::string verdict =
            model.CheckHits(batches_dedup[b][q], r->queries[q], start);
        if (!verdict.empty() && bad++ == 0) {
          report.Fail("batch " + std::to_string(b) + " query " +
                      std::to_string(q) + ": " + verdict);
        }
      }
      totals.Fold(r->cumulative);
      last_result = std::move(*r);
    }
    phase.end_ns = NowNs();
    return phase;
  };

  run_phase(kWarmupS, &off);
  Phase untraced;
  Phase traced;
  if (!o.trace) {
    untraced = run_phase(o.seconds, &off);
  } else {
    untraced = run_phase(o.seconds / 2, &off);
    const Totals before = totals;
    device.ResetStats();
    traced = run_phase(o.seconds / 2, tracer);
    totals.Report(before, &report.layer, /*remote=*/true);
    ReportDevice(device.stats(), &report.layer);
  }
  if (bad > 0) report.Fail(std::to_string(bad) + " queries answered wrongly");

  // --- Checks: exact top-k on a seeded sample; every shard won every call.
  std::vector<Doc> sample;
  for (uint32_t q : SampleIds(o.seed, DocsInputs::kPoolSize, kTopKSample)) {
    sample.push_back(in.pool[q]);
  }
  ++engine_calls;
  auto checked = engine->Search(SearchRequest::Documents(sample));
  if (!checked.ok() || checked->queries.size() != sample.size()) {
    report.Fail("sample Search failed");
  } else {
    for (size_t i = 0; i < sample.size(); ++i) {
      const Doc q = Dedup(sample[i]);
      std::string verdict = model.CheckHits(q, checked->queries[i], 0);
      if (verdict.empty()) {
        verdict = CheckTopK(checked->queries[i], BruteForceTopK(model, q, kK));
      }
      if (!verdict.empty()) {
        report.Fail("sampled query " + std::to_string(i) + ": " + verdict);
        break;
      }
    }
    uint64_t wins = 0;
    uint64_t failures = 0;
    for (const genie::WorkerProfile& w : checked->cumulative.per_worker) {
      wins += w.wins;
      failures += w.failures;
    }
    if (wins != kShards * engine_calls || failures != 0) {
      report.Fail("sum of wins " + std::to_string(wins) +
                  " != shards x calls " +
                  std::to_string(kShards * engine_calls) + " (failures " +
                  std::to_string(failures) + ")");
    }
  }
  engine.reset();

  ReportPhases(untraced, o.trace ? &traced : nullptr, setup_s, *tracer,
               &report);
  if (!o.trace) return report;

  // --- Traced run: direct timed calls into the lower layers. ----------------
  std::map<std::string, double>& layer = report.layer;
  const genie::InvertedIndex index =
      BuildDocsIndexDirect(in.docs, tracer, &layer, &report);
  (void)index;
  // Frame + wire encode/decode of one batch's match request and reply, as
  // the coordinator and each worker do per shard and call.
  {
    genie::net::MatchRequestPayload request;
    request.request_id = 1;
    request.options.k = kK;
    for (const Doc& q : batches[0]) {
      genie::Query compiled;
      for (uint32_t t : Dedup(q)) {
        compiled.AddItem(static_cast<genie::Keyword>(t));
      }
      request.queries.push_back(std::move(compiled));
    }
    genie::net::MatchResponsePayload response;
    response.request_id = 1;
    for (const QueryHits& hits : last_result.queries) {
      genie::QueryResult result;
      for (const genie::Hit& hit : hits.hits) {
        result.entries.push_back({hit.id, hit.match_count});
      }
      result.threshold = hits.threshold;
      response.results.push_back(std::move(result));
    }
    constexpr int kReps = 200;
    const int64_t start = NowNs();
    for (int rep = 0; rep < kReps; ++rep) {
      const std::string req = genie::net::EncodeFrame(
          genie::net::FrameType::kMatch, request.Encode());
      auto req_frame = genie::net::DecodeFrame(req);
      const std::string resp = genie::net::EncodeFrame(
          genie::net::FrameType::kMatchAck, response.Encode());
      auto resp_frame = genie::net::DecodeFrame(resp);
      if (!req_frame.ok() || !resp_frame.ok() ||
          !genie::net::MatchRequestPayload::Decode(req_frame->payload).ok() ||
          !genie::net::MatchResponsePayload::Decode(resp_frame->payload).ok()) {
        report.Fail("frame/wire round trip failed");
        break;
      }
    }
    const int64_t end = NowNs();
    tracer->Record("net.codec", start, end);
    layer["net.codec_s"] = Seconds(end - start) / kReps *
                           static_cast<double>(traced.calls * kShards);
  }
  ReportSpans(*tracer, &layer);
  return report;
}

}  // namespace perfbench
