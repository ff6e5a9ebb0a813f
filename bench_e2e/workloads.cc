#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>

#include "catalog_model.h"
#include "common/random.h"
#include "engine/engine.h"
#include "util/workload.h"
#include "xdm/dom_tree.h"
#include "xml/parser.h"
#include "xpath/dom_evaluator.h"
#include "xpath/parser.h"

namespace bench_e2e {

namespace {

using xdb::Collection;
using xdb::Engine;
using xdb::Status;
namespace workload = xdb::workload;

// Operations per measurement block. In the traced run, blocks alternate
// untraced / traced so both see the same collection state. A multiple of
// the deep_paths shape count, so every block runs each shape equally often.
constexpr int kBlockOps = 40;
// A run goes on past its seconds until reads and writes (where the workload
// writes) each have this many samples, so p99 has ten beyond it; at most
// until three times its seconds.
constexpr size_t kMinSamples = 1000;
// Unrecorded warm-up before each measured segment, in whole blocks: caches
// fill and the first-touch page faults of a fresh engine are not timed.
constexpr double kWarmupSeconds = 0.5;

// Answers the benchmark knows to be wrong on this engine. Their executions
// are still checked, and every wrong one counts as failed; they only do not
// make the run "incorrect". When the engine is fixed the failures drop to 0.
struct KnownDefect {
  const char* shape;
  const char* repro;
};
constexpr KnownDefect kKnownDefects[] = {
    {"//c[d]/e",
     "QuickXScan nested-predicate leak: //c[d]/e over "
     "<c><d><c><e/></c></d></c> returns the inner e; DomEvaluator returns "
     "nothing"},
};

const KnownDefect* FindKnownDefect(const std::string& shape) {
  for (const KnownDefect& d : kKnownDefects)
    if (shape == d.shape) return &d;
  return nullptr;
}

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Samples of one run, kept per operation kind (its query shape, insert or
// delete).
using KindSamples = std::map<std::string, Samples>;

// The q-quantile latency of a mix of kinds, in µs: each kind's own
// quantile, weighted by how often the kind ran. A quantile pooled over kinds
// of far-apart costs (the five deep_paths shapes span 6 to 40 ms) jumps from
// one kind's latency to the next when the host's speed shifts; this one moves
// only as far as each kind's own quantile does.
double MixQuantileUs(std::initializer_list<const KindSamples*> mixes,
                     double q) {
  double sum = 0, count = 0;
  for (const KindSamples* kinds : mixes) {
    for (const auto& [kind, samples] : *kinds) {
      sum += static_cast<double>(samples.size()) * samples.Quantile(q);
      count += static_cast<double>(samples.size());
    }
  }
  return Ratio(sum, count);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Engine counters read from Engine::MetricsSnapshot(); deltas are taken
// around every traced block.

struct Counters {
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  uint64_t buffer_io_us = 0;
  uint64_t latch_wait_us = 0;
  uint64_t lock_acquisitions = 0;
  uint64_t io_writes = 0;  // table-space page writes plus WAL writes
  uint64_t plan_cache_invalidations = 0;
  // Every document write bumps the collection's stats epoch, which is part
  // of the plan-cache key: each bump retires every cached plan.
  uint64_t stats_epoch = 0;

  Counters& operator+=(const Counters& o) {
    buffer_hits += o.buffer_hits;
    buffer_misses += o.buffer_misses;
    buffer_io_us += o.buffer_io_us;
    latch_wait_us += o.latch_wait_us;
    lock_acquisitions += o.lock_acquisitions;
    io_writes += o.io_writes;
    plan_cache_invalidations += o.plan_cache_invalidations;
    stats_epoch += o.stats_epoch;
    return *this;
  }
  Counters operator-(const Counters& o) const {
    Counters d;
    d.buffer_hits = buffer_hits - o.buffer_hits;
    d.buffer_misses = buffer_misses - o.buffer_misses;
    d.buffer_io_us = buffer_io_us - o.buffer_io_us;
    d.latch_wait_us = latch_wait_us - o.latch_wait_us;
    d.lock_acquisitions = lock_acquisitions - o.lock_acquisitions;
    d.io_writes = io_writes - o.io_writes;
    d.plan_cache_invalidations =
        plan_cache_invalidations - o.plan_cache_invalidations;
    d.stats_epoch = stats_epoch - o.stats_epoch;
    return d;
  }
};

Counters ReadCounters(Engine* engine, Collection* coll) {
  xdb::obs::MetricsSnapshot snap = engine->MetricsSnapshot();
  auto hist_sum = [&](const char* name) -> uint64_t {
    const xdb::obs::Metric* m = snap.Find(name);
    return m == nullptr ? 0 : m->hist.sum;
  };
  Counters c;
  c.buffer_hits = snap.Value("buffer.hits");
  c.buffer_misses = snap.Value("buffer.misses");
  c.buffer_io_us = hist_sum("wait.buffer_io.us");
  c.latch_wait_us = hist_sum("wait.latch.us");
  c.lock_acquisitions = snap.Value("lock.acquisitions");
  c.io_writes = snap.Value("io.writes") + snap.Value("wal.io.writes");
  c.plan_cache_invalidations = snap.Value("query.plan_cache.invalidations");
  c.stats_epoch = coll->stats()->epoch();
  return c;
}

// ---------------------------------------------------------------------------
// Shared run state: samples, the tracer, per-layer tallies, answer checks.

struct OpRecord {
  double us = 0;        // engine time of the operation (a latency sample)
  double extra_us = 0;  // engine time outside any sample (checkpoints)
  bool write = false;
  bool ok = true;  // status OK and answer right
  std::string shape;
  std::string detail;  // what was wrong, when !ok
};

struct ShapeFailures {
  uint64_t count = 0;
  uint64_t executions = 0;
  std::string first_detail;
};

class Harness {
 public:
  explicit Harness(const RunConfig& config) : config_(config) {}

  const RunConfig& config() const { return config_; }
  Tracer* tracer() { return &tracer_; }
  RunReport* report() { return &report_; }

  /// Brackets one set-up. The traced run traces its loads too, so the
  /// insert-path layers are measured on every workload.
  void BeginSetup() { tracer_.set_enabled(config_.trace); }
  void EndSetup(uint64_t start_ns) {
    setup_s_.push_back(SinceUs(start_ns) / 1e6);
    tracer_.set_enabled(false);
  }
  void AddLoadWrite(double us) { load_writes_.Add(us); }
  void AddWalBytes(double wal, double user) {
    if (!tracer_.enabled()) return;
    wal_bytes_ += wal;
    user_bytes_ += user;
  }

  /// Collection::Query with serial execution; in a traced block, inside an
  /// engine.query span with the EXPLAIN phases attached.
  xdb::Result<xdb::QueryResult> Query(Collection* coll,
                                      const std::string& xpath,
                                      bool want_values);

  /// Inserts one document. Traced, it is split into its three public calls
  /// (parse, validate, InsertTokens), each in its own span.
  xdb::Result<uint64_t> Insert(Engine* engine, Collection* coll,
                               const xdb::schema::CompiledSchema* schema,
                               const std::string& xml);

  /// Warms up, then runs blocks of kBlockOps until the time measured so far
  /// (over all calls) reaches `share` of the configured seconds. The call
  /// with share 1 also waits for the sample minimum. The read-only
  /// workloads measure in segments with a fresh set-up before each, so set-up
  /// and load latencies are sampled across the whole run, as reads are: the
  /// host's speed drifts over seconds.
  template <typename OpFn>
  void Measure(Engine* engine, Collection* coll, double share, OpFn&& op);

  /// Fills the report's metrics (end-to-end or per-layer).
  void Finish(double stored_bytes, double user_bytes);

 private:
  void Account(const OpRecord& rec, bool traced);

  const RunConfig config_;
  Tracer tracer_;
  RunReport report_;

  std::vector<double> setup_s_;
  Samples reads_, writes_, ops_samples_, load_writes_;
  // The untraced samples again, per kind (query shape, insert, delete).
  KindSamples read_kinds_, write_kinds_;
  double peak_rss_mb_ = 0;
  uint64_t blocks_ = 0;       // measured blocks so far, over all segments
  double measured_ns_ = 0;    // wall time of the measured blocks
  // Untraced and traced engine time / operation counts.
  uint64_t ops_[2] = {0, 0};
  double engine_us_[2] = {0, 0};
  // Per-layer tallies over traced blocks.
  uint64_t traced_reads_ = 0, traced_writes_ = 0, queries_ = 0;
  uint64_t plan_hits_ = 0, plan_misses_ = 0;
  uint64_t postings_ = 0, records_fetched_ = 0, scan_events_ = 0;
  uint64_t docs_evaluated_ = 0;
  double wal_bytes_ = 0, user_bytes_ = 0;
  Counters counters_;
  std::map<std::string, ShapeFailures> shapes_;
};

xdb::Result<xdb::QueryResult> Harness::Query(Collection* coll,
                                             const std::string& xpath,
                                             bool want_values) {
  xdb::QueryOptions o;
  o.want_values = want_values;
  o.parallelism = 1;
  o.explain = tracer_.enabled();
  const int32_t span = tracer_.Begin("engine.query");
  xdb::Result<xdb::QueryResult> res = coll->Query(nullptr, xpath, o);
  tracer_.End(span);
  if (span >= 0 && res.ok()) {
    const xdb::QueryResult& r = res.value();
    for (const xdb::obs::QueryPhase& p : r.profile.phases)
      if (p.name != "total") tracer_.AddPhase(span, p.name, p.wall_us);
    queries_++;
    if (r.profile.plan_cache == "hit") plan_hits_++;
    if (r.profile.plan_cache == "miss") plan_misses_++;
    postings_ += r.stats.index_postings;
    records_fetched_ += r.stats.records_fetched;
    scan_events_ += r.stats.scan_events;
    docs_evaluated_ += r.stats.docs_evaluated;
  }
  return res;
}

xdb::Result<uint64_t> Harness::Insert(Engine* engine, Collection* coll,
                                      const xdb::schema::CompiledSchema* schema,
                                      const std::string& xml) {
  if (!tracer_.enabled()) return coll->InsertDocument(nullptr, xml);
  xdb::TokenWriter tokens;
  {
    ScopedSpan s(&tracer_, "xml.parse");
    Status st = engine->MakeParser().Parse(xml, &tokens);
    if (!st.ok()) return st;
  }
  if (schema == nullptr) {
    ScopedSpan s(&tracer_, "engine.store");
    return coll->InsertTokens(nullptr, tokens.data());
  }
  xdb::TokenWriter validated;
  {
    ScopedSpan s(&tracer_, "schema.validate");
    xdb::schema::ValidatorVm vm(schema, engine->dict());
    Status st = vm.Validate(tokens.data(), &validated);
    if (!st.ok()) return st;
  }
  ScopedSpan s(&tracer_, "engine.store");
  return coll->InsertTokens(nullptr, validated.data());
}

void Harness::Account(const OpRecord& rec, bool traced) {
  report_.attempted++;
  ops_[traced]++;
  engine_us_[traced] += rec.us + rec.extra_us;
  if (!traced) {
    (rec.write ? writes_ : reads_).Add(rec.us);
    ops_samples_.Add(rec.us);
    (rec.write ? write_kinds_ : read_kinds_)[rec.shape].Add(rec.us);
  }
  if (traced) (rec.write ? traced_writes_ : traced_reads_)++;
  ShapeFailures& sf = shapes_[rec.shape];
  sf.executions++;
  if (rec.ok) return;
  report_.failed++;
  if (sf.count++ == 0) sf.first_detail = rec.detail;
  if (FindKnownDefect(rec.shape) == nullptr) report_.correct = false;
}

template <typename OpFn>
void Harness::Measure(Engine* engine, Collection* coll, double share,
                      OpFn&& op) {
  const uint64_t warm_end =
      NowNs() + static_cast<uint64_t>(kWarmupSeconds * 1e9);
  while (NowNs() < warm_end) {
    for (int i = 0; i < kBlockOps; i++) {
      OpRecord rec;
      op(&rec);
    }
  }
  const double target_ns = share * config_.seconds * 1e9;
  const double cap_ns = 3 * config_.seconds * 1e9;
  auto done = [&] {
    if (measured_ns_ < target_ns) return false;
    if (share < 1 || measured_ns_ >= cap_ns) return true;
    return reads_.size() >= kMinSamples &&
           (writes_.size() == 0 || writes_.size() >= kMinSamples);
  };
  const uint64_t start = NowNs();
  const double measured_before = measured_ns_;
  const uint64_t seg_ops = ops_[0];
  const double seg_us = engine_us_[0];
  for (;; blocks_++) {
    const bool traced = config_.trace && blocks_ % 2 == 1;
    // End after whole untraced/traced pairs in the traced run.
    measured_ns_ = measured_before + static_cast<double>(NowNs() - start);
    if (!traced && done()) break;
    Counters before;
    if (traced) before = ReadCounters(engine, coll);
    tracer_.set_enabled(traced);
    for (int i = 0; i < kBlockOps; i++) {
      OpRecord rec;
      op(&rec);
      Account(rec, traced);
    }
    tracer_.set_enabled(false);
    if (traced) counters_ += ReadCounters(engine, coll) - before;
  }
  peak_rss_mb_ = std::max(peak_rss_mb_, PeakRssMb());
  // The host's speed shows here: segments of one run can differ by 30%.
  report_.notes.push_back(Fmt(
      "segment: mean_ops_per_s=%.2f ops=%" PRIu64 " last_setup_s=%.4f",
      Ratio(static_cast<double>(ops_[0] - seg_ops),
            (engine_us_[0] - seg_us) / 1e6),
      ops_[0] - seg_ops, setup_s_.empty() ? 0.0 : setup_s_.back()));
}

void Harness::Finish(double stored_bytes, double user_bytes) {
  for (const auto& [shape, sf] : shapes_) {
    if (sf.count == 0) continue;
    const KnownDefect* known = FindKnownDefect(shape);
    report_.notes.push_back(Fmt(
        "wrong answers: workload=%s seed=%" PRIu64
        " shape=%s wrong=%" PRIu64 "/%" PRIu64 " first: %s%s%s",
        config_.workload.c_str(), config_.seed, shape.c_str(), sf.count,
        sf.executions, sf.first_detail.c_str(),
        known ? " | known defect: " : "", known ? known->repro : ""));
  }
  report_.notes.push_back(Fmt(
      "failed_op_share = %.6f share (%" PRIu64 " failed of %" PRIu64
      " attempted)",
      Ratio(static_cast<double>(report_.failed),
            static_cast<double>(report_.attempted)),
      report_.failed, report_.attempted));
  const xdb::CollectionOptions pool;
  report_.notes.push_back(Fmt(
      "sizes: user_bytes=%.0f stored_bytes=%.0f buffer_pool_bytes=%zu "
      "(stored/pool=%.2f)",
      user_bytes, stored_bytes, pool.buffer_pages * pool.page_size,
      stored_bytes / static_cast<double>(pool.buffer_pages * pool.page_size)));
  auto add = [&](const std::string& name, double value, const char* unit,
                 bool in_result = true) {
    report_.metrics.push_back(MetricOut{name, value, unit, in_result});
  };
  if (!config_.trace) {
    // Read-only workloads write only while loading: their write latency is
    // the load's per-document insert latency.
    const Samples& w = writes_.size() > 0 ? writes_ : load_writes_;
    report_.notes.push_back(Fmt(
        "samples: setups=%zu reads=%zu writes=%zu (%s)", setup_s_.size(),
        reads_.size(), w.size(),
        writes_.size() > 0 ? "measured writes" : "load inserts"));
    for (const KindSamples* kinds : {&read_kinds_, &write_kinds_})
      for (const auto& [kind, samples] : *kinds)
        report_.notes.push_back(Fmt(
            "samples: kind=%s count=%zu p50_us=%.1f p95_us=%.1f", kind.c_str(),
            samples.size(), samples.Quantile(0.5), samples.Quantile(0.95)));
    // On a shared host the medians swing with how busy the other guests are,
    // by up to 40% between runs minutes apart, while the p95 of the catalog
    // reads moves a few percent (README.md). The result carries the steadiest
    // figures; the others are printed for reading only. `op_*` pool reads and
    // writes: on a read-only workload they equal `read_*`.
    auto write_q = [&](double q) {
      return writes_.size() > 0 ? MixQuantileUs({&write_kinds_}, q)
                                : load_writes_.Quantile(q);
    };
    add("setup_s", Median(setup_s_), "s");
    add("read_p95_us", MixQuantileUs({&read_kinds_}, 0.95), "us");
    add("op_p95_us", MixQuantileUs({&read_kinds_, &write_kinds_}, 0.95), "us");
    add("op_p99_us", ops_samples_.Quantile(0.99), "us");
    add("ops_per_s",
        Ratio(static_cast<double>(ops_[0]), engine_us_[0] / 1e6), "1/s",
        false);
    add("read_p50_us", MixQuantileUs({&read_kinds_}, 0.5), "us", false);
    add("read_p99_us", reads_.Quantile(0.99), "us", false);
    add("write_p50_us", write_q(0.5), "us", false);
    add("write_p95_us", write_q(0.95), "us", false);
    add("write_p99_us", w.Quantile(0.99), "us", false);
    add("stored_bytes_per_user_byte", Ratio(stored_bytes, user_bytes), "B/B");
    add("peak_rss_mb", peak_rss_mb_, "MB");
    return;
  }

  // Per-layer metrics from the traced blocks.
  const auto spans = tracer_.Summarize();
  auto total = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_us;
  };
  auto mean = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0
                             : Ratio(it->second.total_us,
                                     static_cast<double>(it->second.count));
  };
  auto self_mean = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0
                             : Ratio(it->second.self_us,
                                     static_cast<double>(it->second.count));
  };
  const double q = static_cast<double>(queries_);
  const double traced_ops = static_cast<double>(ops_[1]);
  const double tw = static_cast<double>(traced_writes_);
  const Counters& c = counters_;
  const double buffer_accesses =
      static_cast<double>(c.buffer_hits + c.buffer_misses);

  add("engine.query_us", mean("engine.query"), "us");
  add("engine.query_self_us", self_mean("engine.query"), "us");
  add("query.plan_us", Ratio(total("phase.plan"), q), "us");
  add("query.plan_cache_hits", static_cast<double>(plan_hits_), "count");
  add("query.plan_cache_misses", static_cast<double>(plan_misses_), "count");
  add("query.plan_cache_hit_ratio",
      Ratio(static_cast<double>(plan_hits_),
            static_cast<double>(plan_hits_ + plan_misses_)),
      "ratio");
  // Plan retirements: stats-epoch bumps plus explicit cache clears.
  const double retired =
      static_cast<double>(c.stats_epoch + c.plan_cache_invalidations);
  add("query.plan_cache_invalidations", retired, "count");
  add("query.plan_cache_invalidations_per_write", Ratio(retired, tw),
      "1/write");
  add("index.probe_us", Ratio(total("phase.probe"), q), "us");
  add("index.merge_us", Ratio(total("phase.merge"), q), "us");
  add("index.postings_per_read", Ratio(static_cast<double>(postings_), q),
      "1/read");
  add("xpath.eval_us",
      Ratio(total("phase.eval") + total("phase.recheck"), q), "us");
  add("xpath.scan_events_per_read",
      Ratio(static_cast<double>(scan_events_), q), "1/read");
  add("xpath.docs_evaluated_per_read",
      Ratio(static_cast<double>(docs_evaluated_), q), "1/read");
  add("storage.records_fetched_per_read",
      Ratio(static_cast<double>(records_fetched_), q), "1/read");
  add("storage.buffer_hits", static_cast<double>(c.buffer_hits), "count");
  add("storage.buffer_misses", static_cast<double>(c.buffer_misses), "count");
  add("storage.buffer_hit_ratio",
      Ratio(static_cast<double>(c.buffer_hits), buffer_accesses), "ratio");
  add("storage.buffer_misses_per_op",
      Ratio(static_cast<double>(c.buffer_misses), traced_ops), "1/op");
  add("storage.buffer_io_wait_us_per_op",
      Ratio(static_cast<double>(c.buffer_io_us), traced_ops), "us");
  add("xml.parse_us", mean("xml.parse"), "us");
  add("schema.validate_us", mean("schema.validate"), "us");
  add("engine.store_us", mean("engine.store"), "us");
  add("engine.update_us", mean("engine.update"), "us");
  add("engine.delete_us", mean("engine.delete"), "us");
  add("storage.wal_bytes", wal_bytes_, "B");
  add("storage.user_bytes_written", user_bytes_, "B");
  add("storage.wal_bytes_per_user_byte", Ratio(wal_bytes_, user_bytes_),
      "B/B");
  add("storage.io_writes", static_cast<double>(c.io_writes), "count");
  add("storage.io_writes_per_write",
      Ratio(static_cast<double>(c.io_writes), tw), "1/write");
  add("storage.checkpoint_ms", mean("engine.checkpoint") / 1e3, "ms");
  add("cc.lock_acquisitions_per_op",
      Ratio(static_cast<double>(c.lock_acquisitions), traced_ops), "1/op");
  add("cc.latch_wait_us_per_op",
      Ratio(static_cast<double>(c.latch_wait_us), traced_ops), "us");
  add("trace.ops", traced_ops, "count");
  add("trace.reads", static_cast<double>(traced_reads_), "count");
  add("trace.writes", tw, "count");
  add("trace.queries", q, "count");
  const double untraced_rate =
      Ratio(static_cast<double>(ops_[0]), engine_us_[0]);
  const double traced_rate = Ratio(traced_ops, engine_us_[1]);
  add("trace.overhead_share", 1.0 - Ratio(traced_rate, untraced_rate),
      "share");

  report_.notes.push_back(
      "self time per span (traced loads and blocks): name count total_ms "
      "self_ms");
  for (const auto& [name, t] : spans)
    report_.notes.push_back(Fmt("  %-22s %8" PRIu64 " %10.3f %10.3f",
                                name.c_str(), t.count, t.total_us / 1e3,
                                t.self_us / 1e3));
  const std::string path = config_.work_dir + "/spans-" + config_.workload +
                           "-seed" + std::to_string(config_.seed) + ".jsonl";
  if (tracer_.WriteJsonl(path))
    report_.notes.push_back("spans written to " + path);
}

double UserBytes(const std::vector<std::string>& docs) {
  double n = 0;
  for (const std::string& d : docs) n += static_cast<double>(d.size());
  return n;
}

// ---------------------------------------------------------------------------
// Catalog workloads.

constexpr uint32_t kLookupDocs = 5000;
constexpr uint32_t kMixedDocs = 3000;
constexpr int kLookupSetups = 3;
constexpr int kMixedSetups = 3;
constexpr uint64_t kWritesPerCheckpoint = 200;

const char* const kLookupShape =
    "/Catalog/Categories/Product[ProductName = $name]/RegPrice";
const char* const kUpdateShape =
    "/Catalog/Categories/Product[ProductName = $name]/RegPrice/text()";

std::string LookupXPath(const std::string& name, bool text_node) {
  return "/Catalog/Categories/Product[ProductName = \"" + name +
         "\"]/RegPrice" + (text_node ? "/text()" : "");
}

std::string PriceText(xdb::Random* rng) {
  return Fmt("%.2f", 1.0 + rng->NextDouble() * 499.0);
}

struct CatalogInputs {
  std::vector<std::string> docs;
  std::vector<std::vector<Product>> products;  // per doc, document order
};

CatalogInputs GenCatalogInputs(xdb::Random* rng, uint32_t n) {
  CatalogInputs in;
  workload::CatalogOptions opts;
  for (uint32_t i = 0; i < n; i++) {
    in.docs.push_back(workload::GenCatalogXml(rng, opts));
    in.products.push_back(ScanProducts(in.docs.back()));
  }
  return in;
}

struct CatalogDb {
  std::unique_ptr<Engine> engine;
  Collection* coll = nullptr;
  const xdb::schema::CompiledSchema* schema = nullptr;
};

// Opens an engine (in memory, or file-backed with the WAL on and commits
// not fsynced), registers the catalog schema, creates the validated
// collection and its two value indexes, and loads `in`, timing each insert.
// Fills `model` when non-null.
Status SetupCatalog(Harness* h, const xdb::EngineOptions& eo,
                    const CatalogInputs& in, CatalogModel* model,
                    CatalogDb* db) {
  auto opened = Engine::Open(eo);
  if (!opened.ok()) return opened.status();
  db->engine = opened.MoveValue();
  XDB_RETURN_NOT_OK(
      db->engine->RegisterSchema("catalog", workload::CatalogSchemaText()));
  XDB_ASSIGN_OR_RETURN(db->schema, db->engine->FindSchema("catalog"));
  xdb::CollectionOptions copts;
  copts.schema = "catalog";
  XDB_ASSIGN_OR_RETURN(db->coll,
                       db->engine->CreateCollection("catalog", copts));
  XDB_RETURN_NOT_OK(db->coll->CreateValueIndex(
      {"name", "/Catalog/Categories/Product/ProductName",
       xdb::ValueType::kString, 128}));
  XDB_RETURN_NOT_OK(db->coll->CreateValueIndex(
      {"price", "/Catalog/Categories/Product/RegPrice",
       xdb::ValueType::kDecimal, 128}));
  for (size_t i = 0; i < in.docs.size(); i++) {
    const uint64_t t0 = NowNs();
    XDB_ASSIGN_OR_RETURN(uint64_t id,
                         h->Insert(db->engine.get(), db->coll, db->schema,
                                   in.docs[i]));
    h->AddLoadWrite(SinceUs(t0));
    if (id != i + 1)
      return Status::Corruption("unexpected doc id " + std::to_string(id));
    if (model != nullptr) model->AddDoc(id, in.products[i]);
  }
  return db->engine->Checkpoint();
}

// Compares one name lookup's answer (RegPrice elements or their text nodes,
// with string values) with the model; "" when right.
std::string CheckLookup(const CatalogModel& model, const std::string& name,
                        const xdb::NodeSequence& got) {
  const std::vector<CatalogModel::Hit> want = model.Lookup(name);
  if (got.size() != want.size())
    return Fmt("name=\"%s\" got %zu nodes, expected %zu", name.c_str(),
               got.size(), want.size());
  for (size_t i = 0; i < got.size(); i++) {
    const Product& p = model.At(want[i]);
    if (got[i].doc_id != want[i].doc_id || got[i].string_value != p.price)
      return Fmt("name=\"%s\" node %zu: got doc %" PRIu64
                 " value \"%s\", expected doc %" PRIu64 " value \"%s\"",
                 name.c_str(), i, got[i].doc_id, got[i].string_value.c_str(),
                 want[i].doc_id, p.price.c_str());
  }
  return "";
}

// One timed name lookup, checked against the model.
void LookupOp(Harness* h, Collection* coll, const CatalogModel& model,
              const std::string& name, OpRecord* rec) {
  rec->shape = kLookupShape;
  const uint64_t t0 = NowNs();
  auto res = h->Query(coll, LookupXPath(name, false), /*want_values=*/true);
  rec->us = SinceUs(t0);
  if (!res.ok()) {
    rec->ok = false;
    rec->detail = res.status().ToString();
    return;
  }
  rec->detail = CheckLookup(model, name, res.value().nodes);
  rec->ok = rec->detail.empty();
}

void RunCatalogLookup(Harness* h) {
  const RunConfig& cfg = h->config();
  xdb::Random gen(cfg.seed);
  const CatalogInputs in = GenCatalogInputs(&gen, kLookupDocs);

  xdb::EngineOptions eo;
  eo.in_memory = true;
  eo.enable_wal = false;
  eo.num_query_threads = 1;
  CatalogModel model;
  CatalogDb db;
  xdb::Random ops(cfg.seed ^ 0x5eedULL);
  // A fresh set-up before each measured segment; every set-up stores the
  // same documents under the same ids, so one model serves them all.
  for (int seg = 0; seg < kLookupSetups; seg++) {
    db = CatalogDb();
    h->BeginSetup();
    const uint64_t t0 = NowNs();
    Status st = SetupCatalog(h, eo, in, seg == 0 ? &model : nullptr, &db);
    h->EndSetup(t0);
    if (!st.ok()) {
      h->report()->fatal = "catalog load failed: " + st.ToString();
      return;
    }
    h->Measure(db.engine.get(), db.coll, (seg + 1.0) / kLookupSetups,
               [&](OpRecord* rec) {
                 const std::string name =
                     model.At(model.RandomProduct(&ops)).name;
                 LookupOp(h, db.coll, model, name, rec);
               });
  }
  h->Finish(static_cast<double>(db.coll->storage_bytes()), UserBytes(in.docs));
}

// The durability check: the engine is closed (its destructor checkpoints),
// reopened, and every acknowledged write is compared with the model. A
// crash-style reopen (engine abandoned without its destructor) is not used:
// on this engine it brings deleted documents back (README.md, defect 3).
std::string ReopenCheck(Harness* h, const xdb::EngineOptions& eo,
                        CatalogDb* db, const CatalogModel& model,
                        xdb::Random* rng) {
  db->engine.reset();
  auto opened = Engine::Open(eo);
  if (!opened.ok()) return "reopen failed: " + opened.status().ToString();
  db->engine = opened.MoveValue();
  auto coll = db->engine->GetCollection("catalog");
  if (!coll.ok()) return "collection lost: " + coll.status().ToString();
  db->coll = coll.value();
  auto ids = db->coll->ListDocIds();
  if (!ids.ok()) return "ListDocIds: " + ids.status().ToString();
  const std::vector<uint64_t> want_ids = model.DocIds();
  if (ids.value() != want_ids) {
    std::vector<uint64_t> extra, missing;
    std::set_difference(ids.value().begin(), ids.value().end(),
                        want_ids.begin(), want_ids.end(),
                        std::back_inserter(extra));
    std::set_difference(want_ids.begin(), want_ids.end(),
                        ids.value().begin(), ids.value().end(),
                        std::back_inserter(missing));
    return Fmt("after reopen %zu documents, expected %zu; first unexpected %"
               PRIu64 ", first missing %" PRIu64,
               ids.value().size(), want_ids.size(),
               extra.empty() ? 0 : extra[0], missing.empty() ? 0 : missing[0]);
  }
  for (uint64_t id : want_ids) {
    auto text = db->coll->GetDocumentText(nullptr, id);
    if (!text.ok())
      return Fmt("doc %" PRIu64 ": %s", id, text.status().ToString().c_str());
    const std::vector<Product> got = ScanProducts(text.value());
    const std::vector<Product>& want = model.DocProducts(id);
    bool same = got.size() == want.size();
    for (size_t i = 0; same && i < got.size(); i++)
      same = got[i].name == want[i].name && got[i].price == want[i].price;
    if (!same) return Fmt("doc %" PRIu64 " differs after reopen", id);
  }
  // The value indexes must have come back too.
  for (int i = 0; i < 200; i++) {
    const std::string name = model.At(model.RandomProduct(rng)).name;
    OpRecord rec;
    LookupOp(h, db->coll, model, name, &rec);
    if (!rec.ok) return "lookup after reopen: " + rec.detail;
  }
  return "";
}

void RunCatalogMixed(Harness* h) {
  const RunConfig& cfg = h->config();
  xdb::Random gen(cfg.seed);
  const CatalogInputs in = GenCatalogInputs(&gen, kMixedDocs);

  xdb::EngineOptions eo;
  eo.dir = cfg.work_dir + "/catalog_mixed-seed" + std::to_string(cfg.seed);
  eo.enable_wal = true;
  eo.sync_commits = false;
  eo.num_query_threads = 1;
  CatalogModel model;
  CatalogDb db;
  for (int rep = 0; rep < kMixedSetups; rep++) {
    const bool last = rep + 1 == kMixedSetups;
    db = CatalogDb();
    std::filesystem::remove_all(eo.dir);
    std::filesystem::create_directories(eo.dir);
    h->BeginSetup();
    const uint64_t t0 = NowNs();
    Status st = SetupCatalog(h, eo, in, last ? &model : nullptr, &db);
    h->EndSetup(t0);
    if (!st.ok()) {
      h->report()->fatal = "catalog load failed: " + st.ToString();
      return;
    }
  }

  std::map<uint64_t, double> doc_bytes;  // user bytes of each live doc
  for (size_t i = 0; i < in.docs.size(); i++)
    doc_bytes[i + 1] = static_cast<double>(in.docs[i].size());
  std::vector<std::string> deleted_names;
  uint64_t writes = 0;
  uint64_t absent = 0;
  xdb::Random ops(cfg.seed ^ 0x5eedULL);
  workload::CatalogOptions gen_opts;
  Tracer* tracer = h->tracer();
  // WAL length in bytes, sampled around each write; checkpoints truncate
  // the log, but never inside a write.
  auto wal_size = [&] { return static_cast<double>(db.engine->wal()->size()); };

  auto update = [&](OpRecord* rec) {
    rec->write = true;
    rec->shape = kUpdateShape;
    const CatalogModel::Hit target = model.RandomProduct(&ops);
    const std::string name = model.At(target).name;
    const std::string price = PriceText(&ops);
    ScopedSpan span(tracer, "op.update");
    uint64_t t0 = NowNs();
    auto res = h->Query(db.coll, LookupXPath(name, true), true);
    rec->us = SinceUs(t0);
    rec->detail = res.ok() ? CheckLookup(model, name, res.value().nodes)
                           : res.status().ToString();
    if (!rec->detail.empty()) {
      rec->ok = false;
      return;
    }
    // The answer matched the model, so its nodes line up with the model's
    // hits for `name`, in document order.
    const std::vector<CatalogModel::Hit> hits = model.Lookup(name);
    size_t j = 0;
    while (hits[j].doc_id != target.doc_id || hits[j].index != target.index)
      j++;
    const xdb::ResultNode& node = res.value().nodes[j];
    const double wal0 = wal_size();
    t0 = NowNs();
    Status st;
    {
      ScopedSpan s(tracer, "engine.update");
      st = db.coll->UpdateTextNode(nullptr, node.doc_id, node.node_id, price);
    }
    rec->us += SinceUs(t0);
    h->AddWalBytes(wal_size() - wal0, static_cast<double>(price.size()));
    if (!st.ok()) {
      rec->ok = false;
      rec->detail = "UpdateTextNode: " + st.ToString();
      return;
    }
    model.SetPrice(target.doc_id, target.index, price);
  };
  auto insert = [&](OpRecord* rec) {
    rec->write = true;
    rec->shape = "insert";
    const std::string xml = workload::GenCatalogXml(&ops, gen_opts);
    const double wal0 = wal_size();
    xdb::Result<uint64_t> id = Status::OK();
    {
      ScopedSpan span(tracer, "op.insert");
      const uint64_t t0 = NowNs();
      id = h->Insert(db.engine.get(), db.coll, db.schema, xml);
      rec->us = SinceUs(t0);
    }
    h->AddWalBytes(wal_size() - wal0, static_cast<double>(xml.size()));
    if (!id.ok()) {
      rec->ok = false;
      rec->detail = "InsertDocument: " + id.status().ToString();
      return;
    }
    model.AddDoc(id.value(), ScanProducts(xml));
    doc_bytes[id.value()] = static_cast<double>(xml.size());
  };
  auto remove = [&](OpRecord* rec) {
    rec->write = true;
    rec->shape = "delete";
    const uint64_t doc = model.RandomDoc(&ops);
    const double wal0 = wal_size();
    Status st;
    {
      ScopedSpan span(tracer, "op.delete");
      ScopedSpan s(tracer, "engine.delete");
      const uint64_t t0 = NowNs();
      st = db.coll->DeleteDocument(nullptr, doc);
      rec->us = SinceUs(t0);
    }
    h->AddWalBytes(wal_size() - wal0, 0);
    if (!st.ok()) {
      rec->ok = false;
      rec->detail = "DeleteDocument: " + st.ToString();
      return;
    }
    for (const Product& p : model.DocProducts(doc))
      deleted_names.push_back(p.name);
    if (deleted_names.size() > 1000)
      deleted_names.erase(deleted_names.begin(), deleted_names.begin() + 500);
    model.RemoveDoc(doc);
    doc_bytes.erase(doc);
  };

  h->Measure(db.engine.get(), db.coll, 1.0, [&](OpRecord* rec) {
    // 50% lookups of live names, 5% lookups of deleted (or never-generated)
    // names, 20% price updates, 15% inserts, 10% deletes.
    const uint64_t pick = ops.Uniform(100);
    if (pick < 55) {
      std::string name;
      if (pick < 50) {
        name = model.At(model.RandomProduct(&ops)).name;
      } else if (!deleted_names.empty()) {
        name = deleted_names[ops.Uniform(deleted_names.size())];
      } else {
        name = "zulu-" + std::to_string(absent++);
      }
      ScopedSpan span(tracer, "op.lookup");
      LookupOp(h, db.coll, model, name, rec);
      return;
    }
    if (pick < 75) {
      update(rec);
    } else if (pick < 90) {
      insert(rec);
    } else {
      remove(rec);
    }
    if (++writes % kWritesPerCheckpoint == 0) {
      const uint64_t t0 = NowNs();
      Status st;
      {
        ScopedSpan s(tracer, "engine.checkpoint");
        st = db.engine->Checkpoint();
      }
      rec->extra_us = SinceUs(t0);
      if (!st.ok()) {
        rec->ok = false;
        rec->detail = "Checkpoint: " + st.ToString();
      }
    }
  });

  double live_bytes = 0;
  for (const auto& [doc, bytes] : doc_bytes) live_bytes += bytes;
  h->Finish(static_cast<double>(db.coll->storage_bytes()), live_bytes);
  const std::string lost = ReopenCheck(h, eo, &db, model, &ops);
  if (!lost.empty()) {
    h->report()->fatal = "acknowledged write lost: " + lost;
  } else {
    h->report()->notes.push_back(Fmt(
        "reopen check passed: %zu documents and every acknowledged write "
        "present after close and reopen",
        model.live_docs()));
  }
  db = CatalogDb();
  std::filesystem::remove_all(eo.dir);
}

// ---------------------------------------------------------------------------
// deep_paths.

constexpr uint32_t kDeepDocs = 2000;
constexpr int kDeepSegments = 5;
constexpr int kDeepSetupsPerSegment = 6;
const char* const kDeepShapes[] = {"//a//t", "//b//e", "//d//e[@w]",
                                   "//c[d]/e", "//*[@v > 90]"};
constexpr size_t kDeepShapeCount = sizeof(kDeepShapes) / sizeof(kDeepShapes[0]);

std::vector<std::string> GenDeepDocs(xdb::Random* rng) {
  std::vector<std::string> docs;
  workload::RandomXmlOptions ro;
  ro.max_nodes = 40;
  ro.max_depth = 52;
  ro.spine_depth_min = 10;
  ro.spine_depth_max = 40;
  for (uint32_t i = 0; i < kDeepDocs; i++) {
    if (rng->Uniform(8) == 0) {
      docs.push_back(workload::GenRecursiveXml(
          10 + static_cast<uint32_t>(rng->Uniform(31)), 1));
    } else {
      docs.push_back(workload::GenRandomXml(rng, ro));
    }
  }
  return docs;
}

// Expected answer of every shape over the collection: the DOM evaluator
// over each document, concatenated in doc-id order (doc i gets id i + 1).
Status DeepOracle(const std::vector<std::string>& docs,
                  std::vector<xdb::NodeSequence>* expected) {
  expected->assign(kDeepShapeCount, {});
  std::vector<xdb::xpath::Path> paths;
  for (const char* shape : kDeepShapes) {
    XDB_ASSIGN_OR_RETURN(xdb::xpath::Path p, xdb::xpath::ParsePath(shape));
    paths.push_back(std::move(p));
  }
  for (size_t i = 0; i < docs.size(); i++) {
    xdb::NameDictionary dict;
    xdb::Parser parser(&dict);
    xdb::TokenWriter tokens;
    XDB_RETURN_NOT_OK(parser.Parse(docs[i], &tokens));
    XDB_ASSIGN_OR_RETURN(std::unique_ptr<xdb::DomTree> tree,
                         xdb::DomTree::FromTokens(tokens.data()));
    xdb::xpath::DomEvaluator eval(tree.get(), &dict, i + 1);
    for (size_t s = 0; s < kDeepShapeCount; s++) {
      XDB_ASSIGN_OR_RETURN(xdb::NodeSequence got,
                           eval.Evaluate(paths[s], false));
      xdb::NormalizeSequence(&got);
      (*expected)[s].insert((*expected)[s].end(), got.begin(), got.end());
    }
  }
  return Status::OK();
}

void RunDeepPaths(Harness* h) {
  const RunConfig& cfg = h->config();
  xdb::Random gen(cfg.seed);
  const std::vector<std::string> docs = GenDeepDocs(&gen);
  std::vector<xdb::NodeSequence> expected;
  const Status oracle = DeepOracle(docs, &expected);
  if (!oracle.ok()) {
    h->report()->fatal = "oracle failed: " + oracle.ToString();
    return;
  }

  xdb::EngineOptions eo;
  eo.in_memory = true;
  eo.enable_wal = false;
  eo.num_query_threads = 1;
  std::unique_ptr<Engine> engine;
  Collection* coll = nullptr;
  // One fresh in-memory set-up; false (with the report's fatal set) when
  // the load broke.
  auto setup = [&]() -> bool {
    engine.reset();
    h->BeginSetup();
    const uint64_t t0 = NowNs();
    const Status st = [&]() -> Status {
      XDB_ASSIGN_OR_RETURN(engine, Engine::Open(eo));
      XDB_ASSIGN_OR_RETURN(coll, engine->CreateCollection("deep"));
      XDB_RETURN_NOT_OK(coll->CreateStructuralIndex({"t_struct", "t"}));
      XDB_RETURN_NOT_OK(coll->CreateStructuralIndex({"e_struct", "e"}));
      XDB_RETURN_NOT_OK(coll->CreateValueIndex(
          {"v_value", "//@v", xdb::ValueType::kDouble, 128}));
      for (size_t i = 0; i < docs.size(); i++) {
        const uint64_t t1 = NowNs();
        XDB_ASSIGN_OR_RETURN(uint64_t id,
                             h->Insert(engine.get(), coll, nullptr, docs[i]));
        h->AddLoadWrite(SinceUs(t1));
        if (id != i + 1)
          return Status::Corruption("unexpected doc id " + std::to_string(id));
      }
      return Status::OK();
    }();
    h->EndSetup(t0);
    if (!st.ok()) {
      h->report()->fatal = "deep load failed: " + st.ToString();
      return false;
    }
    return true;
  };

  size_t next = 0;
  Tracer* tracer = h->tracer();
  auto op = [&](OpRecord* rec) {
    const size_t s = next++ % kDeepShapeCount;
    rec->shape = kDeepShapes[s];
    const int32_t span = tracer->Begin("op.query");
    const uint64_t t0 = NowNs();
    auto res = h->Query(coll, kDeepShapes[s], /*want_values=*/false);
    rec->us = SinceUs(t0);
    tracer->End(span);
    if (!res.ok()) {
      rec->ok = false;
      rec->detail = res.status().ToString();
      return;
    }
    const xdb::NodeSequence& got = res.value().nodes;
    if (got == expected[s]) return;
    rec->ok = false;
    size_t i = 0;
    while (i < got.size() && i < expected[s].size() && got[i] == expected[s][i])
      i++;
    const uint64_t doc = i < got.size() ? got[i].doc_id
                                        : expected[s][i].doc_id;
    rec->detail = Fmt("got %zu nodes, expected %zu; first difference in doc %"
                      PRIu64 ": %s",
                      got.size(), expected[s].size(), doc,
                      docs[doc - 1].size() <= 400 ? docs[doc - 1].c_str()
                                                  : "(document over 400 B)");
  };
  // Set-ups are spread over the run: a few before each measured segment.
  for (int seg = 0; seg < kDeepSegments; seg++) {
    for (int rep = 0; rep < kDeepSetupsPerSegment; rep++)
      if (!setup()) return;
    h->Measure(engine.get(), coll, (seg + 1.0) / kDeepSegments, op);
  }
  h->Finish(static_cast<double>(coll->storage_bytes()), UserBytes(docs));
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"catalog_lookup",
                                                 "catalog_mixed", "deep_paths"};
  return names;
}

RunReport RunWorkload(const RunConfig& config) {
  Harness h(config);
  if (config.workload == "catalog_lookup") RunCatalogLookup(&h);
  if (config.workload == "catalog_mixed") RunCatalogMixed(&h);
  if (config.workload == "deep_paths") RunDeepPaths(&h);
  return *h.report();
}

}  // namespace bench_e2e
