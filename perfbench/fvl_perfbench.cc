// fvl_perfbench — the serving benchmark. Three workloads are driven over the
// wire against an in-process net::ProvenanceServer through
// net::ProvenanceClient, every answer is checked against an in-process
// ground truth, and with --trace 1 each request is replayed in-process
// under layer spans that are written to a trace file.
//
//   fvl_perfbench --workload hot_point|cold_archive|online_ingest
//                 --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--trace-file PATH] [--source DIGEST]
//
// The seed drives every run derivation, key stream and the L0 archive set;
// the server only ever sees the generated requests. Standard output is one
// JSON object (metrics, sample counts, correctness, and the stamp that says
// which runs are comparable). perfbench/run.py builds this binary and turns
// that object into the benchmark result; perfbench/NOTES.md explains each
// workload and metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fvl/core/index.h"
#include "fvl/core/label_store.h"
#include "fvl/core/run_labeler.h"
#include "fvl/core/visibility.h"
#include "fvl/net/client.h"
#include "fvl/net/server.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/blob_source.h"
#include "fvl/util/file.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/key_generator.h"
#include "fvl/workload/view_generator.h"

#ifndef FVL_PERFBENCH_BUILD_TYPE
#define FVL_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fvlbench {
namespace {

using fvl::DataLabel;
using fvl::DerivationStep;
using fvl::LabelStore;
using fvl::MergedProvenanceIndex;
using fvl::ProvenanceIndex;
using fvl::ProvenanceService;
using fvl::Rng;
using fvl::RunItem;
using fvl::net::ProvenanceClient;
using LabeledRun = fvl::ProvenanceService::LabeledRun;
using Pair = std::pair<int, int>;
using RunPair = std::pair<RunItem, RunItem>;

constexpr fvl::ViewLabelMode kMode = fvl::ViewLabelMode::kQueryEfficient;

// Workload shapes (perfbench/NOTES.md says why each one is this size).
constexpr int kWindow = 64;            // pipelined kDepends per request
constexpr int kAcrossBatch = 32;       // same-run pairs per QueryAcrossRuns
constexpr int kCheckpointSteps = 256;  // Apply steps between SnapshotDelta
constexpr int kHotItems = 4096;        // the heap snapshot point queries hit
constexpr int kWarmWindows = 64;       // untimed warm-up windows per client
constexpr int kIngestItems = 32768;    // items per replayed derivation
constexpr int kIngestPool = 2;         // distinct derivations per writer
constexpr int64_t kWriterItemsPerSecond = 16384;  // offered, per writer
constexpr int kL0Runs = 16;
constexpr int kL0Items = 8192;
constexpr int kBigItems = 131072;  // the single-run archive swept
constexpr int kColdCycles = 10;
constexpr int kVerifyPairs = 64;  // sampled pairs per ingested snapshot
// Untraced runs set up this often and report the median as setup_s.
constexpr int kSetUps = 11;
// Traced runs: writers record every 8th Apply (all are replayed, so the
// replica session stays in step); each probe op repeats this often.
constexpr int kApplySpanEvery = 8;
constexpr int kProbeReps = 5;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Exit paths ---------------------------------------------------------

// Keeps replayed decode work observable to the optimizer.
std::atomic<int64_t> g_sink{0};

// The run's private directory; removed on every exit path.
std::string g_work_dir;

void RemoveWorkDir() {
  if (g_work_dir.empty()) return;
  std::error_code ignored;
  std::filesystem::remove_all(g_work_dir, ignored);
  g_work_dir.clear();
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "fvl_perfbench: %s\n", what.c_str());
  RemoveWorkDir();
  std::fflush(nullptr);
  std::_Exit(1);  // server and client threads may still be running
}

template <typename T>
T Must(fvl::Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what + ": " + result.status().ToString());
  return std::move(result).value();
}

void Must(const fvl::Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what + ": " + status.ToString());
}

// Independent, reproducible sub-streams of the one --seed (SplitMix64).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z =
      seed * 0x9E3779B97F4A7C15ULL + (stream + 1) * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Nearest-rank quantile; NaN for no samples.
template <typename T>
double Quantile(std::vector<T> samples, double q) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

// Process CPU (user + system, every thread: clients, server, replays).
double CpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return std::nan("");
}

void WriteFile(const std::string& path, std::string_view bytes) {
  fvl::FileHandle out =
      Must(fvl::FileHandle::CreateTruncate(path), "create " + path);
  Must(out.WriteAll(bytes), "write " + path);
  Must(out.Close(), "close " + path);
}

std::string ReadFile(const std::string& path) {
  fvl::FileHandle in = Must(fvl::FileHandle::OpenRead(path), "open " + path);
  return Must(in.ReadAll(), "read " + path);
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

// --- Tracing ------------------------------------------------------------

// One timed call into a layer. `parent` is the span that caused it (0 for
// a root) and `request` the root span's id, shared by every span of one
// request. Replay spans run after their parent's interval, not inside it,
// so a span's self time is its duration minus its children's durations
// (perfbench/trace_report.py).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  const char* source = "replay";  // replay | setup | probe
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int64_t items = 0;  // labels decoded / items labeled
  int64_t bytes = 0;  // arena bytes of the decoded labels
  int64_t pairs = 0;  // reachability pairs answered
};

// Spans kept in memory, written out when the run ends. A disabled tracer
// records nothing (warm-up replays use one).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  uint64_t NewId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void Add(const Span& span) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Opens a span; request 0 makes it the root of its own request.
Span Open(Tracer& tracer, const char* name, uint64_t parent,
          uint64_t request, const char* source) {
  Span span{tracer.NewId(), parent, request, name, source};
  if (request == 0) span.request = span.id;
  span.start_ns = NowNs();
  return span;
}

void Close(Tracer& tracer, Span* span) {
  span->dur_ns = NowNs() - span->start_ns;
  tracer.Add(*span);
}

// Times `fn` as one span and records it; returns the span id.
template <typename Fn>
uint64_t Timed(Tracer& tracer, const char* name, uint64_t parent,
               uint64_t request, const char* source, Fn&& fn,
               int64_t items = 0) {
  Span span = Open(tracer, name, parent, request, source);
  fn();
  span.items = items;
  Close(tracer, &span);
  return span.id;
}

// Records a wire call that has already happened as a root span.
uint64_t RecordNet(Tracer& tracer, const char* name, int64_t start_ns,
                   int64_t end_ns, int64_t pairs) {
  Span span{tracer.NewId(), 0, 0, name, "replay", start_ns,
            end_ns - start_ns};
  span.request = span.id;
  span.pairs = pairs;
  tracer.Add(span);
  return span.id;
}

// --- Shared set-up ------------------------------------------------------

// The §6.3 medium grey-box view over BioAID, the view every paper-figure
// serving bench uses.
fvl::View BenchView(const fvl::Workload& workload) {
  fvl::ViewGeneratorOptions options;
  options.num_expandable = 8;
  options.deps = fvl::PerceivedDeps::kGreyBox;
  options.seed = 8;
  return fvl::GenerateSafeView(workload, options).view();
}

// The in-process side: ground truth for verification and the target of
// traced replays. A separate service built like the server's, serving
// caches included, so a replay costs what the server's service call costs
// while never touching the server's caches. Replays go against replica
// indexes that get the same warm-up as the server's.
struct Reference {
  std::shared_ptr<ProvenanceService> service;
  fvl::ViewHandle view;
  const fvl::Decoder* decoder = nullptr;
  const fvl::ViewLabel* view_label = nullptr;
};

Reference MakeReference(const fvl::Workload& workload, const fvl::View& view) {
  Reference ref;
  ref.service = Must(ProvenanceService::Create(workload.spec), "reference");
  ref.view = Must(ref.service->RegisterView(view), "reference view");
  ref.decoder = Must(ref.service->DecoderOf(ref.view, kMode), "decoder");
  ref.view_label = Must(ref.service->LabelOf(ref.view, kMode), "view label");
  return ref;
}

ProvenanceIndex IndexOf(const ProvenanceService& service,
                        const LabeledRun& run) {
  return fvl::ProvenanceIndexBuilder::FromLabeledRun(
      service.production_graph(), run.labeler);
}

// Sequential decode of a whole store: the ground truth's label source.
std::vector<DataLabel> DecodeAll(const LabelStore& store) {
  std::vector<DataLabel> labels(store.total_items());
  LabelStore::SpanCursor cursor(store);
  for (int i = 0; i < store.total_items(); ++i) {
    labels[i] = cursor.DecodeAt(i);
  }
  return labels;
}

// A server, its service, and the connection used for set-up, maintenance
// and verification calls. Clients disconnect before the server stops.
struct Serving {
  std::shared_ptr<ProvenanceService> service;
  std::unique_ptr<fvl::net::ProvenanceServer> server;
  std::optional<ProvenanceClient> control;
  std::vector<ProvenanceClient> clients;  // the workload's load generators
  uint64_t view_id = 0;

  Serving() = default;
  Serving(Serving&&) = default;
  Serving& operator=(Serving&&) = default;
  ~Serving() {
    clients.clear();
    control.reset();
    if (server != nullptr) server->Stop();
  }
};

Serving StartServing(const fvl::Workload& workload, const fvl::View& view,
                     int num_clients) {
  Serving s;
  s.service = Must(ProvenanceService::Create(workload.spec), "service");
  s.server = Must(fvl::net::ProvenanceServer::Start(s.service), "server");
  const int port = s.server->port();
  s.control.emplace(Must(ProvenanceClient::Connect(port), "connect"));
  s.view_id = Must(s.control->RegisterView(view), "register view");
  for (int c = 0; c < num_clients; ++c) {
    s.clients.push_back(Must(ProvenanceClient::Connect(port), "connect"));
  }
  return s;
}

// Labels `run` online over the wire and freezes it server-side.
fvl::net::SnapshotInfo IngestOverWire(ProvenanceClient& client,
                                      const fvl::Run& run) {
  uint64_t session = Must(client.BeginRun(), "begin run");
  for (int s = 0; s < run.num_steps(); ++s) {
    const DerivationStep& step = run.step(s);
    Must(client.Apply(session, step.instance, step.production), "apply");
  }
  return Must(client.Snapshot(session), "snapshot");
}

// Zipfian ranks scattered over the item space by a seeded permutation, so
// the hot set is not simply the lowest item ids.
class KeySampler {
 public:
  KeySampler(fvl::KeyDistribution dist, int num_items, uint64_t seed)
      : gen_(dist, num_items), perm_(num_items) {
    std::iota(perm_.begin(), perm_.end(), 0);
    Rng(seed).Shuffle(perm_);
  }
  int Next(Rng& rng) const { return perm_[gen_.Next(rng)]; }

 private:
  fvl::KeyGenerator gen_;
  std::vector<int> perm_;
};

// Server counters over one phase. Registries only grow in this benchmark,
// so the summed cache counters are monotone.
struct ServerDelta {
  uint64_t point_queries = 0, point_batches = 0, frames = 0;
  uint64_t label_hits = 0, label_misses = 0;
  uint64_t reach_hits = 0, reach_misses = 0;
};

ServerDelta Delta(const fvl::net::ServerStats& a,
                  const fvl::net::ServerStats& b) {
  auto d = [](uint64_t from, uint64_t to) {
    return to >= from ? to - from : 0;
  };
  return {d(a.point_queries, b.point_queries),
          d(a.point_batches, b.point_batches),
          d(a.frames, b.frames),
          d(a.label_hits, b.label_hits),
          d(a.label_misses, b.label_misses),
          d(a.reach_hits, b.reach_hits),
          d(a.reach_misses, b.reach_misses)};
}

// --- Layer replays (traced runs) ----------------------------------------

// Leaf spans of one batch: label_store.decode_random walks one SpanCursor
// over the batch's distinct ids in request order (as the service's sparse
// path does), then decoder.depends answers every pair from the decoded
// labels.
void ReplayLeaves(Tracer& tracer, const Reference& ref, const Span& parent,
                  const LabelStore& store, std::span<const Pair> flat) {
  std::vector<int> ids;
  std::unordered_map<int, size_t> slot;
  for (const auto& [a, b] : flat) {
    for (int id : {a, b}) {
      if (slot.emplace(id, ids.size()).second) ids.push_back(id);
    }
  }
  std::vector<DataLabel> labels(ids.size());
  Span decode = Open(tracer, "label_store.decode_random", parent.id,
                     parent.request, parent.source);
  LabelStore::SpanCursor cursor(store);
  for (size_t i = 0; i < ids.size(); ++i) labels[i] = cursor.DecodeAt(ids[i]);
  decode.dur_ns = NowNs() - decode.start_ns;
  decode.items = static_cast<int64_t>(ids.size());
  int64_t bits = 0;
  for (int id : ids) bits += store.LabelBits(id);
  decode.bytes = bits / 8;
  tracer.Add(decode);

  std::vector<std::pair<const DataLabel*, const DataLabel*>> sides;
  for (const auto& [a, b] : flat) {
    sides.push_back({&labels[slot[a]], &labels[slot[b]]});
  }
  Span predicate = Open(tracer, "decoder.depends", parent.id, parent.request,
                        parent.source);
  int64_t hits = 0;
  for (const auto& [l1, l2] : sides) hits += ref.decoder->Depends(*l1, *l2);
  predicate.pairs = static_cast<int64_t>(flat.size());
  Close(tracer, &predicate);
  g_sink.fetch_add(hits, std::memory_order_relaxed);
}

void ReplayDependsMany(Tracer& tracer, const Reference& ref, uint64_t parent,
                       const char* source, const ProvenanceIndex& replica,
                       std::span<const Pair> pairs) {
  Span svc = Open(tracer, "service.depends_many", parent, parent, source);
  Must(ref.service->DependsMany(ref.view, replica, pairs, kMode), "replay");
  svc.pairs = static_cast<int64_t>(pairs.size());
  Close(tracer, &svc);
  ReplayLeaves(tracer, ref, svc, replica.store(), pairs);
}

void ReplayAcrossRuns(Tracer& tracer, const Reference& ref, uint64_t parent,
                      const char* source,
                      const MergedProvenanceIndex& replica,
                      std::span<const RunPair> pairs) {
  Span svc =
      Open(tracer, "service.query_across_runs", parent, parent, source);
  Must(ref.service->QueryAcrossRuns(ref.view, replica, pairs, kMode),
       "replay");
  svc.pairs = static_cast<int64_t>(pairs.size());
  Close(tracer, &svc);
  std::vector<Pair> flat;
  for (const auto& [a, b] : pairs) {
    flat.push_back(
        {replica.GlobalId(a.run, a.item), replica.GlobalId(b.run, b.item)});
  }
  ReplayLeaves(tracer, ref, svc, replica.store(), flat);
}

// service.sweep with its label_store.decode_seq leaf: the cursor walk in
// id order that a sweep's decode amounts to.
void ReplaySweep(Tracer& tracer, uint64_t parent, const char* source,
                 const LabelStore& store, const std::function<void()>& sweep) {
  uint64_t id = Timed(tracer, "service.sweep", parent, parent, source, sweep);
  auto walk = [&] {
    LabelStore::SpanCursor cursor(store);
    int64_t produced = 0;
    for (int i = 0; i < store.total_items(); ++i) {
      produced += cursor.DecodeAt(i).producer.has_value();
    }
    g_sink.fetch_add(produced, std::memory_order_relaxed);
  };
  Timed(tracer, "label_store.decode_seq", id, parent == 0 ? id : parent,
        source, walk, store.total_items());
}

// service.compact (the service's CompactFiles into `output`) with its
// index.compact leaf (CompactStream over the same inputs).
void ReplayCompact(Tracer& tracer, const Reference& ref, uint64_t parent,
                   const char* source, const std::vector<std::string>& inputs,
                   const std::string& output) {
  uint64_t id = Timed(tracer, "service.compact", parent, parent, source, [&] {
    Must(ref.service->CompactFiles(inputs, output), "replay compact");
  });
  Timed(tracer, "index.compact", id, parent == 0 ? id : parent, source, [&] {
    fvl::CompactStream stream;
    for (const std::string& path : inputs) {
      fvl::BlobReader reader(Must(fvl::BlobSource::MapFile(path), path));
      Must(stream.Append(&reader), "compact stream");
    }
    Must(std::move(stream).Finish(), "compact finish");
  });
}

// Writer-side replay state: a session on the reference service plus a
// bare Run/RunLabeler pair, so service.apply and run_labeler.apply are
// timed separately on the same steps.
struct WriterReplica {
  std::shared_ptr<fvl::ProvenanceSession> session;
  std::unique_ptr<fvl::Run> run;
  std::unique_ptr<fvl::RunLabeler> labeler;
  int64_t applies = 0;

  void Begin(const Reference& ref) {
    session = ref.service->BeginRun();
    run = std::make_unique<fvl::Run>(&ref.service->grammar());
    labeler = std::make_unique<fvl::RunLabeler>(
        &ref.service->grammar(), &ref.service->production_graph());
    labeler->OnStart(*run);
  }

  // Replays one Apply; spans are recorded for every kApplySpanEvery-th
  // call, under a net.apply span when the step came over the wire
  // (net_end > net_start) and as a root otherwise (probes).
  void Apply(Tracer& tracer, const char* source, const DerivationStep& step,
             int64_t net_start, int64_t net_end) {
    const bool record = applies++ % kApplySpanEvery == 0;
    Span svc{0, 0, 0, "service.apply", source, NowNs()};
    Must(session->Apply(step.instance, step.production), "replay apply");
    svc.dur_ns = NowNs() - svc.start_ns;
    const DerivationStep& applied = run->Apply(step.instance, step.production);
    Span leaf{0, 0, 0, "run_labeler.apply", source, NowNs()};
    labeler->OnApply(*run, applied);
    leaf.dur_ns = NowNs() - leaf.start_ns;
    if (!record) return;
    const uint64_t root =
        net_end > net_start
            ? RecordNet(tracer, "net.apply", net_start, net_end, 0)
            : 0;
    svc.id = tracer.NewId();
    svc.parent = root;
    svc.request = root == 0 ? svc.id : root;
    svc.items = applied.num_items;
    tracer.Add(svc);
    leaf.id = tracer.NewId();
    leaf.parent = svc.id;
    leaf.request = svc.request;
    leaf.items = applied.num_items;
    tracer.Add(leaf);
  }

  void Checkpoint(Tracer& tracer, const char* source, uint64_t parent) {
    uint64_t id = Timed(tracer, "service.snapshot_delta", parent, parent,
                        source, [&] { session->SnapshotDelta(); });
    Timed(tracer, "label_store.freeze_delta", id, parent == 0 ? id : parent,
          source, [&] { labeler->FreezeDelta(); });
  }
};

// Exercises every layer op on the workload's primary data, as `probe`
// spans. trace_report.py uses probe spans only for ops the workload's own
// requests did not issue, so every per-layer metric exists on every
// workload.
void ProbeLayers(Tracer& tracer, const Reference& ref,
                 const ProvenanceIndex& primary, const fvl::Run& primary_run,
                 uint64_t seed, const std::string& dir) {
  const char* kProbe = "probe";
  Rng rng(SubSeed(seed, 900));
  MergedProvenanceIndex merged = Must(
      ProvenanceIndex::Merge(std::span<const ProvenanceIndex>(&primary, 1)),
      "merge");
  const int n = primary.num_items();
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const std::string path = dir + "/probe" + std::to_string(rep) + ".fvlidx";
    std::string blob;
    Timed(tracer, "index.serialize", 0, 0, kProbe,
          [&] { blob = primary.Serialize(); });
    WriteFile(path, blob);
    uint64_t open = Timed(tracer, "service.open", 0, 0, kProbe, [&] {
      Must(ref.service->OpenIndexFile(path), "probe open");
    });
    Timed(tracer, "index.map", open, open, kProbe,
          [&] { Must(ProvenanceIndex::Map(path), "probe map"); });
    ReplayCompact(tracer, ref, 0, kProbe, {path}, path + ".l1");
    ReplaySweep(tracer, 0, kProbe, primary.store(), [&] {
      Must(ref.service->VisibilitySweep(ref.view, primary, kMode), "sweep");
    });
    std::vector<Pair> pairs(kWindow);
    for (Pair& p : pairs) p = {rng.NextInt(0, n - 1), rng.NextInt(0, n - 1)};
    ReplayDependsMany(tracer, ref, 0, kProbe, primary, pairs);
    std::vector<RunPair> across(kAcrossBatch);
    for (auto& [a, b] : across) {
      a = {0, rng.NextInt(0, n - 1)};
      b = {0, rng.NextInt(0, n - 1)};
    }
    ReplayAcrossRuns(tracer, ref, 0, kProbe, merged, across);
  }
  for (int rep = 0; rep < kProbeReps; ++rep) {
    WriterReplica replica;
    replica.Begin(ref);
    for (int s = 0; s < primary_run.num_steps(); ++s) {
      replica.Apply(tracer, kProbe, primary_run.step(s), 0, 0);
      if ((s + 1) % kCheckpointSteps == 0) {
        replica.Checkpoint(tracer, kProbe, 0);
      }
    }
  }
}

// --- Results ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  int64_t samples;
};

// One phase's totals, for the trace's overhead and net/cache counters.
struct Phase {
  bool traced = false;
  double seconds = 0;
  int64_t answers = 0;
  ServerDelta server;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Phase> phases;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;  // checks that disagree with the ground truth
  std::vector<std::string> problems;

  void Add(const std::string& name, double value, const char* unit,
           int64_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  void Mismatch(int64_t count, const std::string& what) {
    if (count == 0) return;
    mismatches += count;
    problems.push_back(std::to_string(count) + " mismatches: " + what);
  }
};

// FNV-1a over a stream of answers, one step per answer.
constexpr uint64_t kDigestSeed = 0xCBF29CE484222325ULL;
uint64_t FoldAnswer(uint64_t digest, bool answer) {
  return (digest ^ (answer ? 2 : 1)) * 0x100000001B3ULL;
}

// One connection's record of the run. Neither the pairs nor the answers
// are stored, because that would make the process's peak RSS grow with
// throughput: the key stream is seeded, so verification redraws the pairs,
// and the answers are folded into a digest that verification recomputes
// from the ground truth.
struct ClientLog {
  explicit ClientLog(uint64_t stream_seed)
      : seed(stream_seed), rng(stream_seed) {}

  void StartPhase() {
    latency_us.clear();
    cycle_us.clear();
    requests = failed = 0;
    phase_first_answer = answers;
  }
  int64_t PhaseAnswers() const { return answers - phase_first_answer; }

  uint64_t seed;
  Rng rng;                        // the key stream, advanced per request
  uint64_t digest = kDigestSeed;  // every answer of the run, in order
  int64_t answers = 0;            // answers folded into `digest`
  std::vector<float> latency_us;  // per request of the current phase
  // Per request of the current phase: time from the previous request's
  // last answer (or the loop's start) to this one's.
  std::vector<float> cycle_us;
  int64_t requests = 0;  // current phase
  int64_t failed = 0;    // current phase
  int64_t phase_first_answer = 0;
  bool broken = false;  // a request failed, so the stream is out of step
};

// Refills `flat` with the next request's pairs, in the truth's id space.
using DrawFn = std::function<void(Rng&, std::vector<Pair>*)>;

// Redraws every logged request, answers it with the decoder over
// sequentially decoded labels, and returns the number of connections whose
// answer digest differs from that ground truth.
int64_t CheckAnswers(const std::vector<DataLabel>& labels,
                     const fvl::Decoder& decoder,
                     const std::vector<ClientLog>& logs, const DrawFn& draw) {
  std::unordered_map<uint64_t, bool> memo;
  int64_t wrong = 0;
  std::vector<Pair> flat;
  for (const ClientLog& log : logs) {
    Rng rng(log.seed);
    uint64_t digest = kDigestSeed;
    for (int64_t i = 0; i < log.answers;) {
      draw(rng, &flat);
      for (const auto& [a, b] : flat) {
        const uint64_t key =
            (static_cast<uint64_t>(a) << 32) | static_cast<uint32_t>(b);
        auto [it, fresh] = memo.try_emplace(key, false);
        if (fresh) it->second = decoder.Depends(labels[a], labels[b]);
        digest = FoldAnswer(digest, it->second);
        ++i;
      }
    }
    wrong += digest != log.digest;
  }
  return wrong;
}

int64_t PhaseAnswers(const std::vector<ClientLog>& logs) {
  int64_t total = 0;
  for (const ClientLog& log : logs) total += log.PhaseAnswers();
  return total;
}

// query_qps sums, over the connections, answers per request divided by the
// connection's median cycle (request to request). answers / elapsed is
// printed as query_qps_mean: one host stall of a few ms lands in it in
// full, and on a shared host such stalls spread it by up to 0.6 over runs
// of one commit (perfbench/NOTES.md).
void AddQueryMetrics(Outcome* out, const std::vector<ClientLog>& logs,
                     int answers_per_request, double seconds,
                     double cpu_seconds) {
  std::vector<double> latency;
  double qps = 0;
  for (const ClientLog& log : logs) {
    latency.insert(latency.end(), log.latency_us.begin(),
                   log.latency_us.end());
    qps += answers_per_request * 1e6 / Quantile(log.cycle_us, 0.5);
    out->attempted += log.requests;
    out->failed += log.failed;
  }
  const int64_t answers = PhaseAnswers(logs);
  const int64_t n = static_cast<int64_t>(latency.size());
  out->Add("query_qps", qps, "1/s", n);
  out->Add("query_qps_mean", answers / seconds, "1/s", answers);
  out->Add("query_cpu_us", cpu_seconds * 1e6 / answers, "us", answers);
  out->Add("query_p50_us", Quantile(latency, 0.50), "us", n);
  out->Add("query_p99_us", Quantile(latency, 0.99), "us", n);
}

// Runs fn(i) on `count` threads and joins them.
void RunThreads(int count, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  for (int i = 0; i < count; ++i) threads.emplace_back(fn, i);
  for (std::thread& t : threads) t.join();
}

// Set up `reps` times and keep the last; setup_s is the median.
template <typename State, typename Fn>
State RepeatSetUp(int reps, Outcome* out, Fn&& set_up) {
  std::vector<double> seconds;
  std::optional<State> state;
  for (int r = 0; r < reps; ++r) {
    state.reset();  // tear the previous one down outside the timed region
    const int64_t start = NowNs();
    state.emplace(set_up(r));
    seconds.push_back((NowNs() - start) / 1e9);
  }
  out->Add("setup_s", Quantile(seconds, 0.5), "s", reps);
  return std::move(*state);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_file;
  std::string source = "unknown";
};

// Phases of a run: untraced runs measure one phase of --seconds; traced
// runs split it into an untraced half and a traced half, whose difference
// is the tracing overhead.
std::vector<std::pair<bool, double>> PhasePlan(const Options& o) {
  if (!o.trace) return {{false, o.seconds}};
  return {{false, o.seconds / 2}, {true, o.seconds / 2}};
}

// --- Point-query serving (hot_point, and online_ingest's reader) --------

struct PointServing {
  Serving serving;
  LabeledRun run;
  ProvenanceIndex replica;  // identical to the server's snapshot
  uint64_t index_id = 0;
  std::unique_ptr<KeySampler> keys;
};

void DrawWindow(const KeySampler& keys, Rng& rng, std::vector<Pair>* window) {
  window->resize(kWindow);
  for (Pair& p : *window) p = {keys.Next(rng), keys.Next(rng)};
}

// Closed loop of pipelined windows: flush kWindow zipfian kDepends, wait
// for the last answer, repeat, until `deadline` or `max_requests`. Latency
// is per window, flush to last answer. With a tracer, every window is
// replayed on the replica (and recorded if the tracer is enabled).
void PointLoop(ProvenanceClient& client, const PointServing& ps,
               int64_t deadline, int64_t max_requests, ClientLog* log,
               Tracer* tracer, const Reference& ref) {
  std::vector<Pair> window;
  int64_t previous = NowNs();
  for (int64_t r = 0; r < max_requests && !log->broken && NowNs() < deadline;
       ++r) {
    DrawWindow(*ps.keys, log->rng, &window);
    for (const auto& [a, b] : window) {
      client.QueueDepends(ps.serving.view_id, ps.index_id, kMode, a, b);
    }
    ++log->requests;
    const int64_t start = NowNs();
    bool ok = client.Flush().ok();
    uint64_t digest = log->digest;
    for (int i = 0; ok && i < kWindow; ++i) {
      fvl::Result<bool> answer = client.NextDependsAnswer();
      ok = answer.ok();
      if (ok) digest = FoldAnswer(digest, *answer);
    }
    const int64_t end = NowNs();
    if (!ok) {
      ++log->failed;
      log->broken = true;
      return;
    }
    log->digest = digest;
    log->answers += kWindow;
    log->latency_us.push_back((end - start) / 1e3);
    log->cycle_us.push_back((end - previous) / 1e3);
    previous = end;
    if (tracer != nullptr) {
      uint64_t net = RecordNet(*tracer, "net.depends", start, end, kWindow);
      ReplayDependsMany(*tracer, ref, net, "replay", ps.replica, window);
    }
  }
}

PointServing SetUpPointServing(const fvl::Workload& workload,
                               const fvl::View& view, uint64_t seed,
                               int query_clients, int extra_clients,
                               const Reference& ref, bool traced) {
  Serving serving = StartServing(workload, view, query_clients + extra_clients);
  LabeledRun run = serving.service->DeriveLabeledRun(
      {.target_items = kHotItems, .seed = SubSeed(seed, 1)});
  fvl::net::SnapshotInfo snap = IngestOverWire(*serving.control, run.run);
  ProvenanceIndex replica = IndexOf(*serving.service, run);
  if (snap.num_items != replica.num_items()) Fatal("set-up snapshot differs");
  auto keys = std::make_unique<KeySampler>(
      fvl::KeyDistribution::kZipfian, replica.num_items(), SubSeed(seed, 2));
  PointServing ps{std::move(serving), std::move(run), std::move(replica),
                  snap.index_id, std::move(keys)};
  // Warm-up pass: fills the snapshot's label cache and memo (and, in a
  // traced run, the replica's, through an unrecorded replay).
  Tracer quiet(false);
  RunThreads(query_clients, [&](int c) {
    ClientLog scratch(SubSeed(seed, 300 + c));
    PointLoop(ps.serving.clients[c], ps, INT64_MAX, kWarmWindows, &scratch,
              traced ? &quiet : nullptr, ref);
    if (scratch.failed != 0) Fatal("warm-up failed");
  });
  return ps;
}

void RunHotPoint(const Options& o, const fvl::Workload& workload,
                 const fvl::View& view, const Reference& ref, Tracer& tracer,
                 Outcome* out) {
  constexpr int kClients = 2;
  PointServing ps = RepeatSetUp<PointServing>(
      o.trace ? 1 : kSetUps, out, [&](int) {
        return SetUpPointServing(workload, view, o.seed, kClients, 0, ref,
                                 o.trace);
      });
  std::vector<ClientLog> logs;
  for (int c = 0; c < kClients; ++c) {
    logs.emplace_back(SubSeed(o.seed, 400 + c));
  }
  for (auto [traced, seconds] : PhasePlan(o)) {
    Tracer* t = traced ? &tracer : nullptr;
    for (ClientLog& log : logs) log.StartPhase();
    const fvl::net::ServerStats before = ps.serving.server->stats();
    const double cpu = CpuSeconds();
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    RunThreads(kClients, [&](int c) {
      PointLoop(ps.serving.clients[c], ps, deadline, INT64_MAX, &logs[c], t,
                ref);
    });
    const double elapsed = (NowNs() - start) / 1e9;
    out->phases.push_back({traced, elapsed, PhaseAnswers(logs),
                           Delta(before, ps.serving.server->stats())});
    if (!traced) {
      AddQueryMetrics(out, logs, kWindow, elapsed, CpuSeconds() - cpu);
    }
  }
  const int n = ps.replica.num_items();
  out->Add("bytes_per_item",
           static_cast<double>(ps.replica.Serialize().size()) / n, "B", n);
  out->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  if (tracer.enabled()) {
    ProbeLayers(tracer, ref, ps.replica, ps.run.run, o.seed, o.work_dir);
  }
  out->Mismatch(
      CheckAnswers(DecodeAll(ps.replica.store()), *ref.decoder, logs,
                   [&](Rng& rng, std::vector<Pair>* flat) {
                     DrawWindow(*ps.keys, rng, flat);
                   }),
      "connections whose point-query answers differ from sequential "
      "decode + Decoder::Depends");
}

// --- online_ingest ------------------------------------------------------

struct WriterLog {
  int64_t items = 0;  // labeled over the wire
  std::vector<double> apply_us;
  std::vector<double> checkpoint_us;
  std::vector<std::pair<uint64_t, int>> snapshots;  // index id, pool slot
  int64_t requests = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
};

// Replays pool derivations over the wire back to back until `deadline`:
// BeginRun, Apply per step (each returned step checked), SnapshotDelta
// every kCheckpointSteps steps, and a final Snapshot. Steps are paced so
// the writer offers kWriterItemsPerSecond (late steps go at once). The
// load is open-loop because the server keeps every session, delta and
// snapshot, so a closed loop would make memory grow with write speed. It
// is even rather than one burst per run because bursts made the reader
// beside it twice as noisy.
void WriterLoop(ProvenanceClient& client, const std::vector<LabeledRun>& pool,
                int first_slot, int64_t phase_start, int64_t deadline,
                WriterLog* log, Tracer* tracer, const Reference& ref) {
  WriterReplica replica;
  int64_t offered = 0;  // items of the steps sent so far
  for (int k = 0; NowNs() < deadline; ++k) {
    const int slot = first_slot + k % kIngestPool;
    const fvl::Run& run = pool[slot].run;
    ++log->requests;
    fvl::Result<uint64_t> session = client.BeginRun();
    if (!session.ok()) {
      ++log->failed;
      return;
    }
    if (tracer != nullptr) replica.Begin(ref);
    for (int s = 0; s < run.num_steps(); ++s) {
      const int64_t due =
          phase_start + offered * 1'000'000'000 / kWriterItemsPerSecond;
      if (due >= deadline) return;  // partial run: never snapshotted
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      const DerivationStep& step = run.step(s);
      offered += step.num_items;
      ++log->requests;
      const int64_t start = NowNs();
      fvl::Result<DerivationStep> applied =
          client.Apply(*session, step.instance, step.production);
      const int64_t end = NowNs();
      if (!applied.ok()) {
        ++log->failed;
        return;
      }
      log->items += step.num_items;
      log->apply_us.push_back((end - start) / 1e3);
      log->mismatches += applied->first_item != step.first_item ||
                         applied->num_items != step.num_items;
      if (tracer != nullptr) {
        replica.Apply(*tracer, "replay", step, start, end);
      }
      if ((s + 1) % kCheckpointSteps != 0) continue;
      ++log->requests;
      const int64_t cp_start = NowNs();
      fvl::Result<fvl::net::SnapshotInfo> delta =
          client.SnapshotDelta(*session);
      const int64_t cp_end = NowNs();
      if (!delta.ok()) {
        ++log->failed;
        return;
      }
      log->checkpoint_us.push_back((cp_end - cp_start) / 1e3);
      log->mismatches +=
          delta->frozen_items != step.first_item + step.num_items;
      if (tracer != nullptr) {
        replica.Checkpoint(*tracer, "replay",
                           RecordNet(*tracer, "net.snapshot_delta", cp_start,
                                     cp_end, 0));
      }
    }
    ++log->requests;
    fvl::Result<fvl::net::SnapshotInfo> snap = client.Snapshot(*session);
    if (!snap.ok()) {
      ++log->failed;
      return;
    }
    log->mismatches += snap->num_items != run.num_items();
    log->snapshots.push_back({snap->index_id, slot});
  }
}

void RunOnlineIngest(const Options& o, const fvl::Workload& workload,
                     const fvl::View& view, const Reference& ref,
                     Tracer& tracer, Outcome* out) {
  constexpr int kWriters = 2;
  struct IngestState {
    PointServing ps;
    std::vector<LabeledRun> pool;  // kIngestPool derivations per writer
  };
  IngestState st = RepeatSetUp<IngestState>(
      o.trace ? 1 : kSetUps, out, [&](int) {
        IngestState s{SetUpPointServing(workload, view, o.seed, 1, kWriters,
                                        ref, o.trace),
                      {}};
        for (int i = 0; i < kWriters * kIngestPool; ++i) {
          s.pool.push_back(s.ps.serving.service->DeriveLabeledRun(
              {.target_items = kIngestItems,
               .seed = SubSeed(o.seed, 500 + i)}));
        }
        return s;
      });
  PointServing& ps = st.ps;
  std::vector<ClientLog> reader;  // one query connection
  reader.emplace_back(SubSeed(o.seed, 400));
  std::vector<WriterLog> writer_all(kWriters);
  for (auto [traced, seconds] : PhasePlan(o)) {
    Tracer* t = traced ? &tracer : nullptr;
    reader[0].StartPhase();
    std::vector<WriterLog> writers(kWriters);
    const fvl::net::ServerStats before = ps.serving.server->stats();
    const double cpu = CpuSeconds();
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    RunThreads(1 + kWriters, [&](int c) {
      if (c == 0) {
        PointLoop(ps.serving.clients[0], ps, deadline, INT64_MAX, &reader[0],
                  t, ref);
      } else {
        WriterLoop(ps.serving.clients[c], st.pool, (c - 1) * kIngestPool,
                   start, deadline, &writers[c - 1], t, ref);
      }
    });
    const double elapsed = (NowNs() - start) / 1e9;
    out->phases.push_back({traced, elapsed, PhaseAnswers(reader),
                           Delta(before, ps.serving.server->stats())});
    if (!traced) {
      AddQueryMetrics(out, reader, kWindow, elapsed, CpuSeconds() - cpu);
      std::vector<double> applies, checkpoints;
      int64_t items = 0;
      for (const WriterLog& w : writers) {
        applies.insert(applies.end(), w.apply_us.begin(), w.apply_us.end());
        checkpoints.insert(checkpoints.end(), w.checkpoint_us.begin(),
                           w.checkpoint_us.end());
        items += w.items;
        out->attempted += w.requests;
        out->failed += w.failed;
      }
      out->Add("ingest_items_per_s", items / elapsed, "1/s", items);
      out->Add("apply_p50_us", Quantile(applies, 0.5), "us",
               static_cast<int64_t>(applies.size()));
      out->Add("checkpoint_p50_us", Quantile(checkpoints, 0.5), "us",
               static_cast<int64_t>(checkpoints.size()));
    }
    for (int w = 0; w < kWriters; ++w) {
      writer_all[w].mismatches += writers[w].mismatches;
      writer_all[w].snapshots.insert(writer_all[w].snapshots.end(),
                                     writers[w].snapshots.begin(),
                                     writers[w].snapshots.end());
    }
  }
  int64_t pool_bytes = 0, pool_items = 0;
  for (const LabeledRun& run : st.pool) {
    pool_bytes += static_cast<int64_t>(
        IndexOf(*ps.serving.service, run).Serialize().size());
    pool_items += run.run.num_items();
  }
  out->Add("bytes_per_item", static_cast<double>(pool_bytes) / pool_items,
           "B", pool_items);
  out->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  if (tracer.enabled()) {
    ProbeLayers(tracer, ref, ps.replica, ps.run.run, o.seed, o.work_dir);
  }

  // Ground truth: the reader's answers, every writer-returned step, and
  // sampled queries on each ingested snapshot vs its reference run.
  out->Mismatch(CheckAnswers(DecodeAll(ps.replica.store()), *ref.decoder,
                             reader,
                             [&](Rng& rng, std::vector<Pair>* flat) {
                               DrawWindow(*ps.keys, rng, flat);
                             }),
                "reader connection: point-query answers differ");
  std::vector<std::vector<DataLabel>> truth(st.pool.size());
  Rng verify_rng(SubSeed(o.seed, 600));
  int64_t wrong = 0, snapshots = 0;
  for (const WriterLog& w : writer_all) {
    out->Mismatch(w.mismatches, "writer steps, watermarks or snapshot sizes");
    for (const auto& [index_id, slot] : w.snapshots) {
      std::vector<DataLabel>& labels = truth[slot];
      if (labels.empty()) labels = DecodeAll(st.pool[slot].labeler.store());
      const int n = static_cast<int>(labels.size());
      std::vector<Pair> pairs(kVerifyPairs);
      for (Pair& p : pairs) {
        p = {verify_rng.NextInt(0, n - 1), verify_rng.NextInt(0, n - 1)};
      }
      std::vector<bool> got = Must(ps.serving.control->DependsMany(
                                       ps.serving.view_id, index_id, kMode,
                                       pairs),
                                   "verify ingested snapshot");
      for (size_t i = 0; i < pairs.size(); ++i) {
        wrong += got[i] != ref.decoder->Depends(labels[pairs[i].first],
                                                labels[pairs[i].second]);
      }
      ++snapshots;
    }
  }
  if (snapshots == 0) {
    out->problems.push_back("no derivation completed: nothing verified");
  }
  out->Mismatch(wrong, "sampled queries on ingested snapshots");
}

// --- cold_archive -------------------------------------------------------

struct ColdState {
  Serving serving;
  std::vector<ProvenanceIndex> l0;  // reference copies of the archived runs
  std::vector<std::string> l0_paths;
  std::optional<LabeledRun> probe_run;  // L0 run 0, for the layer probes
  std::optional<ProvenanceIndex> big;
  std::string big_path;
  uint64_t big_id = 0;
  std::string dir;
};

ColdState SetUpCold(const fvl::Workload& workload, const fvl::View& view,
                    uint64_t seed, const std::string& dir, int clients,
                    Tracer& tracer) {
  ColdState st;
  st.dir = dir;
  std::filesystem::create_directories(dir);
  st.serving = StartServing(workload, view, clients);
  auto archive = [&](const LabeledRun& run, const std::string& path) {
    ProvenanceIndex index = IndexOf(*st.serving.service, run);
    std::string blob;
    Timed(tracer, "index.serialize", 0, 0, "setup",
          [&] { blob = index.Serialize(); });
    WriteFile(path, blob);
    return index;
  };
  for (int r = 0; r < kL0Runs; ++r) {
    LabeledRun run = st.serving.service->DeriveLabeledRun(
        {.target_items = kL0Items, .seed = SubSeed(seed, 200 + r)});
    st.l0_paths.push_back(dir + "/l0_" + std::to_string(r) + ".fvlidx");
    st.l0.push_back(archive(run, st.l0_paths.back()));
    if (r == 0) st.probe_run = std::move(run);
  }
  LabeledRun big = st.serving.service->DeriveLabeledRun(
      {.target_items = kBigItems, .seed = SubSeed(seed, 250)});
  st.big_path = dir + "/big.fvlidx";
  st.big = archive(big, st.big_path);
  fvl::net::OpenInfo opened =
      Must(st.serving.control->OpenIndexFile(st.big_path), "open big");
  if (opened.num_items != st.big->num_items()) Fatal("big archive differs");
  st.big_id = opened.index_id;
  return st;
}

// kAcrossBatch same-run pairs with uniform keys over uniform runs.
void DrawBatch(const std::vector<int>& sizes, Rng& rng,
               std::vector<RunPair>* batch) {
  batch->resize(kAcrossBatch);
  for (auto& [a, b] : *batch) {
    const int run = rng.NextInt(0, static_cast<int>(sizes.size()) - 1);
    a = {run, rng.NextInt(0, sizes[run] - 1)};
    b = {run, rng.NextInt(0, sizes[run] - 1)};
  }
}

// Closed loop of QueryAcrossRuns batches until `deadline`.
void AcrossLoop(ProvenanceClient& client, uint64_t view_id,
                uint64_t merged_id, const std::vector<int>& sizes,
                int64_t deadline, ClientLog* log, Tracer* tracer,
                const Reference& ref, const MergedProvenanceIndex* replica) {
  std::vector<RunPair> batch;
  int64_t previous = NowNs();
  while (!log->broken && NowNs() < deadline) {
    DrawBatch(sizes, log->rng, &batch);
    ++log->requests;
    const int64_t start = NowNs();
    fvl::Result<std::vector<bool>> answers =
        client.QueryAcrossRuns(view_id, merged_id, kMode, batch);
    const int64_t end = NowNs();
    if (!answers.ok() || answers->size() != batch.size()) {
      ++log->failed;
      log->broken = true;
      return;
    }
    log->latency_us.push_back((end - start) / 1e3);
    log->cycle_us.push_back((end - previous) / 1e3);
    previous = end;
    for (bool answer : *answers) log->digest = FoldAnswer(log->digest, answer);
    log->answers += kAcrossBatch;
    if (tracer != nullptr) {
      uint64_t net = RecordNet(*tracer, "net.query_across_runs", start, end,
                               kAcrossBatch);
      ReplayAcrossRuns(*tracer, ref, net, "replay", *replica, batch);
    }
  }
}

void RunColdArchive(const Options& o, const fvl::Workload& workload,
                    const fvl::View& view, const Reference& ref,
                    Tracer& tracer, Outcome* out) {
  constexpr int kClients = 2;
  ColdState st = RepeatSetUp<ColdState>(
      o.trace ? 1 : kSetUps, out, [&](int rep) {
        return SetUpCold(workload, view, o.seed,
                         o.work_dir + "/setup" + std::to_string(rep),
                         kClients, tracer);
      });
  ProvenanceClient& control = *st.serving.control;
  const uint64_t view_id = st.serving.view_id;
  std::vector<int> sizes, bases;
  int total = 0;
  for (const ProvenanceIndex& run : st.l0) {
    bases.push_back(total);
    sizes.push_back(run.num_items());
    total += run.num_items();
  }
  std::optional<ProvenanceIndex> big_replica;
  if (tracer.enabled()) {
    big_replica = Must(ref.service->OpenIndexFile(st.big_path), "replica");
  }

  std::vector<double> compact_ms, open_ms, sweep_ms;
  std::vector<std::string> l1_paths;
  std::vector<std::vector<bool>> sweeps;
  std::vector<ClientLog> logs;
  for (int c = 0; c < kClients; ++c) {
    logs.emplace_back(SubSeed(o.seed, 400 + c));
  }
  // Cycles split across the phases in proportion to their length; the
  // query part of each cycle is time-boxed.
  for (auto [traced, seconds] : PhasePlan(o)) {
    Tracer* t = traced ? &tracer : nullptr;
    const int cycles = std::max(
        1, static_cast<int>(std::lround(kColdCycles * seconds / o.seconds)));
    const int64_t query_ns = static_cast<int64_t>(seconds * 1e9 / cycles);
    for (ClientLog& log : logs) log.StartPhase();
    const fvl::net::ServerStats before = st.serving.server->stats();
    double query_seconds = 0, query_cpu = 0;
    int64_t requests = 0;
    for (int c = 0; c < cycles; ++c) {
      // A fresh L1 path per cycle: CompactFiles truncates its output, and
      // the previous L1 is still mapped by the server.
      const std::string l1 =
          st.dir + "/l1_" + std::to_string(l1_paths.size()) + ".fvlmrg";
      const std::string replica_l1 = l1 + ".replica";
      l1_paths.push_back(l1);
      requests += 3;
      int64_t start = NowNs();
      fvl::net::MergeInfo compacted =
          Must(control.CompactFiles(st.l0_paths, l1), "compact");
      int64_t end = NowNs();
      if (!traced) compact_ms.push_back((end - start) / 1e6);
      if (compacted.num_runs != kL0Runs || compacted.total_items != total) {
        out->Mismatch(1, "compaction output shape");
      }
      if (traced) {
        uint64_t net = RecordNet(*t, "net.compact_files", start, end, 0);
        ReplayCompact(*t, ref, net, "replay", st.l0_paths, replica_l1);
      }

      std::optional<MergedProvenanceIndex> replica;
      start = NowNs();
      fvl::net::MergeInfo opened =
          Must(control.OpenMergedIndexFile(l1), "open merged");
      end = NowNs();
      if (!traced) open_ms.push_back((end - start) / 1e6);
      if (traced) {
        uint64_t net = RecordNet(*t, "net.open_merged", start, end, 0);
        uint64_t svc = Timed(*t, "service.open", net, net, "replay", [&] {
          replica = Must(ref.service->OpenMergedIndexFile(replica_l1), "open");
        });
        Timed(*t, "index.map", svc, net, "replay", [&] {
          Must(MergedProvenanceIndex::Map(replica_l1), "replica map");
        });
      }

      const double cpu = CpuSeconds();
      start = NowNs();
      const int64_t deadline = start + query_ns;
      RunThreads(kClients, [&](int k) {
        AcrossLoop(st.serving.clients[k], view_id, opened.merged_id, sizes,
                   deadline, &logs[k], t, ref,
                   replica ? &*replica : nullptr);
      });
      query_seconds += (NowNs() - start) / 1e9;
      query_cpu += CpuSeconds() - cpu;

      start = NowNs();
      sweeps.push_back(
          Must(control.VisibilitySweep(view_id, st.big_id, kMode), "sweep"));
      end = NowNs();
      if (!traced) sweep_ms.push_back((end - start) / 1e6);
      if (traced) {
        uint64_t net = RecordNet(*t, "net.sweep", start, end, 0);
        ReplaySweep(*t, net, "replay", big_replica->store(), [&] {
          Must(ref.service->VisibilitySweep(ref.view, *big_replica, kMode),
               "replica sweep");
        });
      }
    }
    out->phases.push_back({traced, query_seconds, PhaseAnswers(logs),
                           Delta(before, st.serving.server->stats())});
    if (!traced) {
      out->attempted += requests;
      AddQueryMetrics(out, logs, kAcrossBatch, query_seconds, query_cpu);
    }
  }
  auto add_median = [&](const char* name, const std::vector<double>& ms) {
    out->Add(name, Quantile(ms, 0.5), "ms", static_cast<int64_t>(ms.size()));
  };
  add_median("compact_ms", compact_ms);
  add_median("open_ms", open_ms);
  add_median("sweep_ms", sweep_ms);
  fvl::FileHandle l1 = Must(fvl::FileHandle::OpenRead(l1_paths[0]), "l1");
  out->Add("bytes_per_item",
           static_cast<double>(Must(l1.Size(), "l1 size")) / total, "B",
           total);
  out->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  if (tracer.enabled()) {
    ProbeLayers(tracer, ref, st.l0[0], st.probe_run->run, o.seed, st.dir);
  }

  // Ground truth: pairs against the L0 runs' sequential decode, sweeps
  // against IsItemVisible on the big run, and every L1 file against the
  // in-process Merge of the same runs (compaction is bit-identical to it).
  std::vector<DataLabel> labels;
  for (const ProvenanceIndex& run : st.l0) {
    std::vector<DataLabel> part = DecodeAll(run.store());
    labels.insert(labels.end(), part.begin(), part.end());
  }
  std::vector<RunPair> batch;
  out->Mismatch(CheckAnswers(labels, *ref.decoder, logs,
                             [&](Rng& rng, std::vector<Pair>* flat) {
                               DrawBatch(sizes, rng, &batch);
                               flat->clear();
                               for (const auto& [a, b] : batch) {
                                 flat->push_back({bases[a.run] + a.item,
                                                  bases[b.run] + b.item});
                               }
                             }),
                "connections whose QueryAcrossRuns answers differ");
  std::vector<bool> visible;
  for (const DataLabel& label : DecodeAll(st.big->store())) {
    visible.push_back(fvl::IsItemVisible(label, *ref.view_label));
  }
  int64_t wrong = 0;
  for (const std::vector<bool>& sweep : sweeps) wrong += sweep != visible;
  out->Mismatch(wrong, "visibility sweeps");
  const std::string expected =
      Must(ProvenanceIndex::Merge(st.l0), "reference merge").Serialize();
  int64_t bad_files = 0;
  for (const std::string& path : l1_paths) {
    bad_files += ReadFile(path) != expected;
  }
  out->Mismatch(bad_files, "compacted L1 archives vs in-process Merge");
}

// --- Output -------------------------------------------------------------

std::string Stamp(const Options& o) {
  std::string s = "{\"seed\":" + std::to_string(o.seed);
  s += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  s += ",\"build_type\":" + JsonString(FVL_PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  s += ",\"compiler\":" + JsonString(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  s += ",\"compiler\":" + JsonString(std::string("gcc ") + __VERSION__);
#else
  s += ",\"compiler\":\"unknown\"";
#endif
  s += ",\"source\":" + JsonString(o.source);
  s += ",\"seconds\":" + JsonNumber(o.seconds) + "}";
  return s;
}

void WriteTrace(const Options& o, const Outcome& out, Tracer& tracer) {
  std::FILE* f = std::fopen(o.trace_file.c_str(), "w");
  if (f == nullptr) Fatal("cannot write trace file " + o.trace_file);
  std::fprintf(f, "{\"type\":\"meta\",\"workload\":%s,\"stamp\":%s}\n",
               JsonString(o.workload).c_str(), Stamp(o).c_str());
  for (const Phase& p : out.phases) {
    const ServerDelta& d = p.server;
    std::fprintf(
        f,
        "{\"type\":\"phase\",\"traced\":%d,\"seconds\":%s,"
        "\"answers\":%" PRId64 ",\"point_queries\":%" PRIu64
        ",\"point_batches\":%" PRIu64 ",\"frames\":%" PRIu64
        ",\"label_hits\":%" PRIu64 ",\"label_misses\":%" PRIu64
        ",\"reach_hits\":%" PRIu64 ",\"reach_misses\":%" PRIu64 "}\n",
        p.traced ? 1 : 0, JsonNumber(p.seconds).c_str(), p.answers,
        d.point_queries, d.point_batches, d.frames, d.label_hits,
        d.label_misses, d.reach_hits, d.reach_misses);
  }
  for (const Span& s : tracer.Take()) {
    std::fprintf(
        f,
        "{\"type\":\"span\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
        ",\"request\":%" PRIu64 ",\"name\":\"%s\",\"source\":\"%s\","
        "\"start_ns\":%" PRId64 ",\"dur_ns\":%" PRId64 ",\"items\":%" PRId64
        ",\"bytes\":%" PRId64 ",\"pairs\":%" PRId64 "}\n",
        s.id, s.parent, s.request, s.name, s.source, s.start_ns, s.dur_ns,
        s.items, s.bytes, s.pairs);
  }
  if (std::fclose(f) != 0) Fatal("cannot write trace file " + o.trace_file);
}

void PrintResult(const Options& o, const Outcome& out) {
  const bool correct = out.mismatches == 0 && out.problems.empty();
  std::string s = "{\"workload\":" + JsonString(o.workload);
  s += ",\"trace\":" + std::to_string(o.trace ? 1 : 0);
  s += ",\"stamp\":" + Stamp(o);
  s += std::string(",\"correct\":") + (correct ? "true" : "false");
  s += ",\"attempted\":" + std::to_string(out.attempted);
  s += ",\"failed\":" + std::to_string(out.failed);
  s += ",\"mismatches\":" + std::to_string(out.mismatches);
  s += ",\"problems\":[";
  for (size_t i = 0; i < out.problems.size(); ++i) {
    if (i > 0) s += ",";
    s += JsonString(out.problems[i]);
  }
  s += "],\"metrics\":{";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i > 0) s += ",";
    s += JsonString(m.name) + ":{\"value\":" + JsonNumber(m.value) +
         ",\"unit\":" + JsonString(m.unit) +
         ",\"n\":" + std::to_string(m.samples) + "}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

Options ParseOptions(int argc, char** argv) {
  if (argc % 2 == 0) Fatal("flags take one value each");
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--trace-file") {
      o.trace_file = value;
    } else if (flag == "--source") {
      o.source = value;
    } else {
      Fatal("unknown flag " + flag);
    }
  }
  if (o.work_dir.empty() || !(o.seconds > 0)) {
    Fatal("--work-dir and a positive --seconds are required");
  }
  if (o.trace && o.trace_file.empty()) Fatal("--trace 1 needs --trace-file");
  return o;
}

int Main(int argc, char** argv) {
  Options o = ParseOptions(argc, argv);
  std::filesystem::create_directories(o.work_dir);
  std::string dir = o.work_dir + "/run.XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) Fatal("mkdtemp under " + o.work_dir);
  g_work_dir = dir;
  o.work_dir = dir;

  const fvl::Workload workload = fvl::MakeBioAid(2012);
  const fvl::View view = BenchView(workload);
  const Reference ref = MakeReference(workload, view);
  Tracer tracer(o.trace);
  Outcome out;
  if (o.workload == "hot_point") {
    RunHotPoint(o, workload, view, ref, tracer, &out);
  } else if (o.workload == "cold_archive") {
    RunColdArchive(o, workload, view, ref, tracer, &out);
  } else if (o.workload == "online_ingest") {
    RunOnlineIngest(o, workload, view, ref, tracer, &out);
  } else {
    Fatal("unknown workload '" + o.workload + "'");
  }
  const double ok = out.attempted == 0
                        ? 0.0
                        : static_cast<double>(out.attempted - out.failed) /
                              out.attempted;
  out.Add("ok_frac", ok, "ratio", out.attempted);
  if (o.trace) WriteTrace(o, out, tracer);
  RemoveWorkDir();
  PrintResult(o, out);
  for (const std::string& problem : out.problems) {
    std::fprintf(stderr, "fvl_perfbench: %s\n", problem.c_str());
  }
  return out.mismatches == 0 && out.problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace fvlbench

int main(int argc, char** argv) { return fvlbench::Main(argc, argv); }
