// Collection: a base table with an XML column, backed by the paper's
// Figure 2 layout — base-table DocID index, internal XML table of packed
// records, NodeID index, and any number of XPath value indexes, all sharing
// one table space.
#ifndef XDB_ENGINE_COLLECTION_H_
#define XDB_ENGINE_COLLECTION_H_

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "cc/transaction.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/catalog.h"
#include "index/nodeid_index.h"
#include "index/structural_index.h"
#include "index/value_index.h"
#include "obs/query_trace.h"
#include "pack/record_builder.h"
#include "pack/tree_cursor.h"
#include "query/access_path.h"
#include "query/executor.h"
#include "query/plan_cache.h"
#include "query/stats.h"
#include "storage/buffer_manager.h"
#include "storage/record_manager.h"
#include "storage/tablespace.h"
#include "storage/wal_log.h"
#include "xdm/item.h"
#include "xpath/ast.h"

namespace xdb {

namespace obs {
struct WaitStats;
}  // namespace obs
namespace xpath {
class QueryTree;
}  // namespace xpath

class Engine;

struct CollectionOptions {
  bool mvcc = false;              // enable document-level multiversioning
  std::string schema;             // registered schema to validate against
  size_t record_budget = 3000;    // packing budget (the p knob)
  size_t buffer_pages = 512;
  /// Buffer pool shards (0 = engine default, which itself defaults to
  /// BufferManager::DefaultShardCount for the pool size).
  size_t buffer_shards = 0;
  uint32_t page_size = kDefaultPageSize;
};

/// How the executor accessed the data, plus its work counters — benches and
/// EXPERIMENTS.md report these.
struct QueryStats {
  query::AccessMethod method = query::AccessMethod::kFullScan;
  uint64_t index_postings = 0;    // entries read from value indexes
  uint64_t candidate_docs = 0;    // docs identified before recheck
  uint64_t candidate_anchors = 0; // node anchors identified before recheck
  uint64_t docs_evaluated = 0;    // documents QuickXScan actually ran over
  uint64_t records_fetched = 0;   // XML records fetched from storage
  uint64_t scan_events = 0;       // QuickXScan events pumped (all scans)
  uint64_t scan_instances = 0;    // pattern instances created (all scans)
  uint64_t scan_peak_live = 0;    // max live instances in any one scan
  bool rechecked = false;
  std::string explain;

  /// Adds another partial evaluation's work (one parallel chunk's) to this
  /// one: the evaluate stage's single stats merge.
  void Merge(const QueryStats& other) {
    docs_evaluated += other.docs_evaluated;
    records_fetched += other.records_fetched;
    scan_events += other.scan_events;
    scan_instances += other.scan_instances;
    scan_peak_live = std::max(scan_peak_live, other.scan_peak_live);
  }
};

struct QueryResult {
  NodeSequence nodes;
  QueryStats stats;
  /// Populated when QueryOptions::explain/trace was set (profile.enabled
  /// says so); default-constructed and empty otherwise.
  obs::QueryProfile profile;
};

using query::ForceMethod;

struct QueryOptions {
  ForceMethod force = ForceMethod::kAuto;
  bool want_values = false;  // compute result nodes' string values
  /// Threads evaluating this query, including the caller. 0 = the engine
  /// default (EngineOptions::num_query_threads), 1 = serial. Values above 1
  /// only take effect when the engine has a query pool; small candidate
  /// sets fall back to serial regardless (see query::PartitionForParallelism).
  int parallelism = 0;
  /// Populate QueryResult::profile with the chosen access path, per-phase
  /// cardinalities and timings (see obs::QueryProfile::PlanText()).
  bool explain = false;
  /// Implies explain; additionally records per-step trace lines (index probe
  /// details, candidate lists) into profile.trace_lines.
  bool trace = false;
  /// Freshness bound for replica reads: the query only runs once the
  /// engine's applied-CSN watermark reaches this value, waiting at most
  /// freshness_timeout_us and failing with kStale otherwise. 0 (default)
  /// reads whatever is applied; on a primary the bound is trivially
  /// satisfied. Callers get read-your-writes by passing the primary
  /// shipper's EndCsn() (or any CSN an earlier write observed).
  uint64_t min_csn = 0;
  /// Microseconds WaitForFreshness may block for min_csn (0 = fail
  /// immediately when the replica is behind).
  uint64_t freshness_timeout_us = 0;
};

/// Per-collection outcome of Engine::Scrub() — what was scanned, what was
/// damaged, and how much of the data survived repair.
struct CollectionScrubReport {
  std::string collection;
  uint64_t pages_scanned = 0;
  uint64_t checksum_failures = 0;   // pages failing CRC (or unreadable)
  uint64_t envelope_failures = 0;   // data pages with a broken slot layout
  bool rebuilt = false;             // storage was reset and repopulated
  uint64_t docs_salvaged = 0;       // re-inserted from still-readable records
  uint64_t docs_recovered_from_wal = 0;  // restored by filtered WAL replay
  uint64_t docs_lost = 0;           // present before, unrecoverable after
  std::vector<std::string> notes;
};

/// One document write as the write pipeline carries it and the WAL records
/// it: the record kind (one of the five document kinds), the document, and
/// the kind's arguments.
struct DocWrite {
  WalRecordType kind = WalRecordType::kInsertDocument;
  uint64_t doc_id = 0;  // an insert's is allocated by the pipeline
  /// Update: the text node; insert-subtree: the parent element;
  /// delete-subtree: the subtree root.
  Slice node{};
  Slice after{};  // insert-subtree: the left sibling (empty = append)
  /// Insert: the document's tokens; update: the new text; insert-subtree:
  /// the fragment's tokens.
  Slice data{};
};

class Collection {
 public:
  ~Collection() = default;
  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;

  const std::string& name() const { return meta_.name; }
  bool mvcc_enabled() const { return meta_.mvcc_enabled; }

  /// True when structural corruption was found at open time: every data
  /// operation returns kCorruption until Engine::Scrub() repairs the
  /// collection.
  bool needs_repair() const { return needs_repair_; }
  const std::string& repair_reason() const { return repair_reason_; }

  /// Parses (and validates, when the collection has a schema) and stores a
  /// document. A null txn runs the operation autocommitted.
  Result<uint64_t> InsertDocument(Transaction* txn, Slice xml);

  /// Stores an already-tokenized document (constructor pipelines insert
  /// without an XML-text round trip).
  Result<uint64_t> InsertTokens(Transaction* txn, Slice tokens)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(docid_mu_);

  /// Serializes the stored document back to XML text.
  Result<std::string> GetDocumentText(Transaction* txn, uint64_t doc_id)
      XDB_EXCLUDES(latch_) {
    return SerializeSubtree(txn, doc_id, Slice());
  }

  Status DeleteDocument(Transaction* txn, uint64_t doc_id)
      XDB_EXCLUDES(latch_);

  /// Subdocument update: replaces the value of one text node. Under MVCC
  /// this creates a new document version (copy-on-write of the containing
  /// record); otherwise it updates the record in place. Takes an IX lock on
  /// the document and an X node lock on the text node itself.
  Status UpdateTextNode(Transaction* txn, uint64_t doc_id, Slice node_id,
                        Slice new_text) XDB_EXCLUDES(latch_);

  /// Subdocument insert: parses `fragment` (one root element) and grafts it
  /// as a new child of `parent_id`, immediately after `after_sibling_id`
  /// (empty = append as last child). The new subtree gets a node ID from
  /// Between(), so existing IDs — and therefore all index entries for other
  /// nodes — are untouched ("there is always space for insertion in the
  /// middle by extending the node ID length"). Returns the new subtree
  /// root's absolute node ID. Locking collections only (kNotSupported under
  /// MVCC).
  Result<std::string> InsertSubtree(Transaction* txn, uint64_t doc_id,
                                    Slice parent_id, Slice after_sibling_id,
                                    Slice fragment) XDB_EXCLUDES(latch_);

  /// Subdocument delete: removes the subtree rooted at `node_id` (any
  /// non-root node), including all records it spans. Locking collections
  /// only.
  Status DeleteSubtree(Transaction* txn, uint64_t doc_id, Slice node_id)
      XDB_EXCLUDES(latch_);

  /// Secondary-index DDL. All four run the one create/drop path (see
  /// CreateIndex/DropIndex): value and structural indexes differ only in
  /// their definition and live in separate name spaces.
  ///
  /// Creates an XPath value index and backfills it from existing documents.
  Status CreateValueIndex(const ValueIndexDef& def)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(ddl_mu_) {
    return CreateIndex(def);
  }
  /// Drops a value index. Bumps the index-structure version and clears the
  /// plan cache so no compiled plan ever probes the destroyed index.
  Status DropValueIndex(const std::string& name)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(ddl_mu_) {
    return DropIndex(IndexKind::kValue, name);
  }
  /// Creates a structural (pre,post)-interval index and backfills it.
  Status CreateStructuralIndex(const StructuralIndexDef& def)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(ddl_mu_) {
    return CreateIndex(def);
  }
  Status DropStructuralIndex(const std::string& name)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(ddl_mu_) {
    return DropIndex(IndexKind::kStructural, name);
  }

  /// Evaluates an XPath query over the collection: the one read entry point.
  /// Compiled plans are served from the per-collection plan cache when
  /// enabled (keyed by query text, force mode, want_values and the stats
  /// epoch); a hit skips parsing, planning and QueryTree compilation
  /// entirely. Plans are cost-based while the collected statistics are
  /// valid and follow the Section 4.3 rules otherwise.
  Result<QueryResult> Query(Transaction* txn, Slice xpath,
                            const QueryOptions& options = {});

  Result<std::vector<uint64_t>> ListDocIds() XDB_EXCLUDES(latch_);
  Result<uint64_t> DocCount() XDB_EXCLUDES(latch_);

  /// Drops versions of `doc_id` older than the given snapshot and frees the
  /// records only they referenced (MVCC garbage collection; a no-op for
  /// non-MVCC collections). Callers guarantee no active reader holds an
  /// older snapshot.
  Status VacuumVersions(uint64_t doc_id, uint64_t oldest_live_snapshot)
      XDB_EXCLUDES(latch_);

  /// Serializes the subtree a handle points to (deferred fetch), or with an
  /// empty `node_id` the whole document.
  Result<std::string> SerializeSubtree(Transaction* txn, uint64_t doc_id,
                                       Slice node_id) XDB_EXCLUDES(latch_);

  // Component access for tests and benchmarks.
  query::CollectionStats* stats() { return &stats_; }
  query::PlanCache* plan_cache() { return &plan_cache_; }
  uint64_t index_version() const {
    return index_version_.load(std::memory_order_acquire);
  }
  RecordManager* records() { return records_.get(); }
  NodeIdIndex* node_index() { return node_index_.get(); }
  VersionManager* versions() { return versions_.get(); }
  /// The live index of that kind and name, or null.
  SecondaryIndex* FindIndex(IndexKind kind, const std::string& name);
  ValueIndex* FindValueIndex(const std::string& name) {
    return static_cast<ValueIndex*>(FindIndex(IndexKind::kValue, name));
  }
  StructuralIndex* FindStructuralIndex(const std::string& name) {
    return static_cast<StructuralIndex*>(
        FindIndex(IndexKind::kStructural, name));
  }
  BufferManager* buffer_manager() { return buffer_.get(); }
  const CollectionMeta& meta() const { return meta_; }
  uint64_t storage_bytes() const { return records_->StorageBytes(); }

 private:
  friend class Engine;
  Collection() = default;

  // Locking helper honoring the transaction's isolation mode; autocommit
  // transactions are created/finished by the public methods.
  Status ReadLockDoc(Transaction* txn, uint64_t doc_id);
  /// The locator reads in `txn` resolve node IDs through: for a snapshot
  /// read of an MVCC collection, `*snap` pinned at the transaction's
  /// snapshot; otherwise the current NodeID index.
  NodeLocator* ReadLocator(Transaction* txn, SnapshotLocator* snap);
  /// kNotFound unless the document is stored.
  Status RequireDoc(uint64_t doc_id) XDB_REQUIRES_SHARED(latch_);

  /// The write pipeline every document write runs, in stages: the write
  /// guard, an autocommit transaction when `txn` is null, the op's lock
  /// footprint (document X for insert and delete, document IX plus node X
  /// for node writes), one WAL record, the exclusive latch, the apply stage.
  /// Allocates an insert's DocID into op->doc_id; an insert-subtree's new
  /// node ID lands in *new_id.
  Status Write(Transaction* txn, DocWrite* op, std::string* new_id = nullptr)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(docid_mu_);
  /// The apply stage: mutates records, the NodeID index and versions, keeps
  /// every secondary index in step through its SecondaryIndex hooks, then
  /// notes the statistics. Never logs; the pipeline, WAL replay and scrub
  /// salvage all apply here.
  Status ApplyWrite(Transaction* txn, const DocWrite& op, std::string* new_id)
      XDB_REQUIRES(latch_);
  /// A logged write re-applied (WAL replay, replica apply, scrub salvage):
  /// the apply stage in its own transaction, with no lock-manager locks and
  /// no WAL record. Idempotent: an insert whose DocID is stored is skipped,
  /// and kNotFound means the write was already applied. An insert also
  /// moves next_doc_id past its DocID.
  Status ApplyLogged(const DocWrite& op)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(docid_mu_);
  // The apply stage's record mutations, one per write kind.
  Status InsertRecords(Transaction* txn, uint64_t doc_id, Slice tokens)
      XDB_REQUIRES(latch_);
  Status DeleteRecords(uint64_t doc_id) XDB_REQUIRES(latch_);
  Status ReplaceText(Transaction* txn, uint64_t doc_id, Slice node_id,
                     Slice text) XDB_REQUIRES(latch_);
  Status GraftSubtree(uint64_t doc_id, Slice parent_id, Slice after_sibling_id,
                      Slice tokens, std::string* new_id) XDB_REQUIRES(latch_);
  Status PruneSubtree(uint64_t doc_id, Slice node_id) XDB_REQUIRES(latch_);
  /// Hands one document to every secondary index (see IndexedDocument for
  /// which event source each path uses).
  Status AddToIndexes(IndexedDocument* doc) XDB_REQUIRES(latch_);
  /// Removes one stored document's entries from every secondary index.
  Status RemoveFromIndexes(uint64_t doc_id) XDB_REQUIRES(latch_);
  /// One document as read back from its stored records.
  IndexedDocument StoredDocument(uint64_t doc_id);
  /// RIDs of all records fully contained in the subtree at `node_id`,
  /// starting from proxies inside `record` (recursive across records).
  Status CollectSubtreeRecords(uint64_t doc_id, Slice node_id, Slice record,
                               std::vector<Rid>* out) XDB_REQUIRES(latch_);

  /// Compiles one execution-ready plan for `path`: plans (cost-based when
  /// stats are valid), compiles the full QueryTree, and for node-level plans
  /// also the recheck residual tree and prefix pattern. The returned plan is
  /// immutable and shareable (this is what the plan cache stores).
  Result<std::shared_ptr<const query::CompiledPlan>> CompileForExecution(
      xpath::Path&& path, const QueryOptions& options) XDB_EXCLUDES(latch_);

  /// How a compiled plan reached execution: the plan-cache state surfaced in
  /// EXPLAIN ("hit"/"miss"/"off") and the planning time to attribute (zero
  /// on a cache hit; CPU is measured for profiled queries only).
  struct PlanTiming {
    const char* cache_state = "off";
    uint64_t wall_us = 0;
    uint64_t cpu_us = 0;
  };

  /// What a candidate stage hands the evaluate stage: DocIDs QuickXScan
  /// evaluates whole (scan and doc-level index plans), or node anchors the
  /// residual rechecks (node-level and structural plans). Either list is in
  /// DocID order.
  struct Candidates {
    bool node_level = false;
    std::vector<uint64_t> docs;
    std::vector<Posting> anchors;
  };

  /// Runs a compiled plan: one candidate stage chosen by the access method,
  /// then the evaluate stage, then the always-on accounting. When the plan's
  /// index-structure version no longer matches (an index was dropped or the
  /// storage rebuilt since compile), sets *plan_stale and fails — Query
  /// replans and retries; the stale check is what distinguishes this from
  /// other kBusy failures (pinned buffer frames), which must NOT be retried
  /// with a fresh plan.
  Result<QueryResult> ExecuteCompiled(Transaction* txn,
                                      const query::CompiledPlan& cp,
                                      const QueryOptions& options,
                                      const PlanTiming& timing,
                                      bool* plan_stale) XDB_EXCLUDES(latch_);

  // --- candidate sources, one per access-method family ---
  /// Full scan: every stored DocID.
  Status ScanCandidates(QueryResult* result, Candidates* out)
      XDB_EXCLUDES(latch_);
  /// Value-index probes, then a DocID-list merge (doc-level plans) or
  /// anchoring at the predicate step (node-level plans).
  Status ProbeCandidates(const query::CompiledPlan& cp, QueryResult* result,
                         Candidates* out, bool* plan_stale)
      XDB_EXCLUDES(latch_);
  /// Structural scan: the anchor element's interval entries are the anchors.
  Status StructuralCandidates(const query::CompiledPlan& cp,
                              QueryResult* result, Candidates* out,
                              bool* plan_stale) XDB_EXCLUDES(latch_);
  /// The probe phase both index sources share: under one shared latch and
  /// the index_version_ gate, every planned value probe (one posting list
  /// each) and the plan's structural scan, if any.
  Status ProbeIndexes(const query::CompiledPlan& cp, QueryResult* result,
                      std::vector<std::vector<Posting>>* per_probe,
                      std::vector<Posting>* structural, bool* plan_stale)
      XDB_EXCLUDES(latch_);

  /// The evaluate stage: S-locks the candidates' documents on this thread
  /// (`lock_txn` null for snapshot reads), then evaluates every candidate
  /// under the shared latch — the full QueryTree per document, or the
  /// prefix check plus residual per anchor — fanned out over the query pool
  /// when the list is big enough, and normalizes the result sequence.
  Status EvaluateCandidates(Transaction* lock_txn,
                            const query::CompiledPlan& cp,
                            const QueryOptions& options, NodeLocator* locator,
                            const Candidates& cands, QueryResult* result)
      XDB_EXCLUDES(latch_);

  /// One anchor's recheck: verifies the anchor path against the main-path
  /// prefix, then evaluates the residual tree over the anchor subtree.
  /// Benign misses (invisible at snapshot, stale posting) return OK with no
  /// output. The anchor's doc lock must already be held.
  Status EvalAnchor(const Posting& anchor, const query::CompiledPlan& cp,
                    NodeLocator* locator, QueryResult* result)
      XDB_REQUIRES_SHARED(latch_);

  /// Runs QuickXScan with `tree` over one stored document (or, with a
  /// non-empty `subtree_root`, one subtree) and adds its matches and work
  /// counters to `result`. kNotFound means the document or node is not
  /// visible to this read; the caller skips it.
  Status RunScan(const xpath::QueryTree* tree, uint64_t doc_id,
                 std::string subtree_root, NodeLocator* locator,
                 QueryResult* result) XDB_REQUIRES_SHARED(latch_);

  /// Profile header of an EXPLAIN/trace query: the plan and its inputs.
  void BeginProfile(const query::CompiledPlan& cp, const PlanTiming& timing,
                    bool trace, obs::QueryProfile* prof) const;
  /// The epilogue every execution runs: always-on metrics, the profile's
  /// counters, totals and waits (when enabled) and slow-query capture.
  /// `exec_cpu_us` is the issuing thread's execution CPU (profiled only).
  void FinishQuery(const query::CompiledPlan& cp, const PlanTiming& timing,
                   uint64_t exec_wall_us, uint64_t exec_cpu_us,
                   uint64_t pages_before, const obs::WaitStats& waits,
                   QueryResult* result);

  /// The one secondary-index DDL path. ddl_mu_ spans the mutation AND its
  /// WAL record, so a concurrent create and drop of one index can never log
  /// in the opposite order of their application (replay and replicas
  /// converge on the log order).
  Status CreateIndex(const SecondaryIndexDef& def)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(ddl_mu_);
  Status DropIndex(IndexKind kind, const std::string& name)
      XDB_EXCLUDES(latch_) XDB_EXCLUDES(ddl_mu_);
  /// Bodies of CreateIndex/DropIndex without the DDL mutex and without
  /// logging — the form WAL replay and the replica apply path call (replay
  /// must not take ddl_mu_: it already holds the WAL mutex, which a client
  /// DDL acquires only AFTER ddl_mu_, so the reverse nesting would deadlock;
  /// replay applies records in log order single-threaded and needs no DDL
  /// serialization of its own). A create whose backfill fails leaves no
  /// trace: the index is registered only once it is complete.
  Status ApplyCreateIndex(const SecondaryIndexDef& def) XDB_EXCLUDES(latch_);
  Status ApplyDropIndex(IndexKind kind, const std::string& name)
      XDB_EXCLUDES(latch_);
  /// Returns the pages of the `count` oldest retired trees to the free list
  /// (see retired_trees_).
  void FreeRetiredTrees(size_t count) XDB_REQUIRES(latch_);
  /// Builds the buffer pool, the record manager and every index over
  /// space_: the DocID, NodeID and (MVCC) version trees and every secondary
  /// index that meta_ lists. A tree is created when `create` is set or its
  /// root is unset, otherwise opened at its root; either way the root is
  /// recorded back into meta_. Shared by Engine::OpenCollection and
  /// RebuildStorage.
  Status OpenStorage(bool create);

  /// kCorruption when the collection is quarantined; call at the top of every
  /// public data operation.
  Status GuardRepair() const;
  /// GuardRepair plus the replica read-only gate (kNotSupported on a replica
  /// outside the apply path); call at the top of every public mutation.
  Status GuardWrite() const;

  /// Sweeps every page of the table space (checksum + record-envelope
  /// checks), and if any damage is found salvages what is readable, rebuilds
  /// the storage from scratch, and re-inserts the salvaged documents.
  /// Fills `salvaged_ids` (re-inserted, WAL replay must skip them) and
  /// `lost_ids` (present before, unreadable — WAL replay may still restore
  /// them). A clean sweep leaves the collection untouched.
  Status ScrubAndRepair(CollectionScrubReport* report,
                        std::set<uint64_t>* salvaged_ids,
                        std::set<uint64_t>* lost_ids) XDB_EXCLUDES(latch_);

  /// Resets the table space and recreates every storage component (records,
  /// trees, indexes) empty through OpenStorage, updating meta_ roots.
  /// Destroys components top-down so nothing flushes into the reset space.
  Status RebuildStorage() XDB_EXCLUDES(latch_);

  /// ListDocIds without the repair guard; callers hold latch_ (any mode).
  Result<std::vector<uint64_t>> ListDocIdsUnlocked()
      XDB_REQUIRES_SHARED(latch_);
  /// Reads one document back as a serialized token stream (the salvage
  /// representation; survives the storage rebuild).
  Result<std::string> ReadDocTokensForScrub(uint64_t doc_id)
      XDB_EXCLUDES(latch_);

  Engine* engine_ = nullptr;
  CollectionMeta meta_;
  size_t record_budget_ = 3000;
  std::unique_ptr<TableSpace> space_;
  std::unique_ptr<BufferManager> buffer_;
  std::unique_ptr<RecordManager> records_;
  std::unique_ptr<BTree> docid_tree_;
  std::unique_ptr<BTree> nodeid_tree_;
  std::unique_ptr<BTree> versioned_tree_;
  std::unique_ptr<NodeIdIndex> node_index_;
  std::unique_ptr<VersionManager> versions_;
  struct OwnedIndex {
    std::unique_ptr<BTree> tree;
    std::unique_ptr<SecondaryIndex> index;
  };
  // Value and structural indexes, each kind in creation order.
  std::vector<OwnedIndex> indexes_;
  // Trees of dropped indexes, oldest first, that a durable catalog may
  // still name; Engine::Checkpoint frees them once it has saved one that
  // does not.
  std::vector<std::unique_ptr<BTree>> retired_trees_;
  // Short-duration structure latch over the storage components above
  // (records_, trees, node_index_, indexes_). Writers (document
  // insert/delete, subtree edits, index creation, rebuild) hold it
  // exclusively; readers (query evaluation, serialization, doc listing)
  // hold it shared. The components themselves are not GUARDED_BY so tests
  // and benches can poke them single-threaded; concurrent paths go through
  // the REQUIRES-annotated *Locked helpers. Lock order: transaction-level
  // document/node locks (LockManager) are always acquired BEFORE latch_ —
  // never block on a doc lock while holding the latch.
  mutable SharedMutex latch_{LockRank::kCollectionLatch};
  // Doc id allocation (meta_.next_doc_id). Leaf lock: nothing else is
  // acquired while it is held.
  Mutex docid_mu_{LockRank::kCollectionDocId};
  // Serializes client index DDL (create/drop) TOGETHER WITH its WAL
  // append: held across both the latched mutation and the log record, so
  // concurrent create+drop of the same index can never log in the opposite
  // order of their application — an inversion crash replay or a replica
  // would converge to the wrong final state from. Ordered before latch_ and
  // before the WAL mutex; WAL replay never takes it (see ApplyCreateIndex).
  Mutex ddl_mu_{LockRank::kCollectionDdl};

  // Collected statistics (doc/node counts, per-index sketches, the stats
  // epoch). Mutating notes run under the exclusive latch_; snapshots are
  // taken lock-free of latch_ (stats_ has its own leaf mutex, acquired
  // after every other lock and holding none).
  query::CollectionStats stats_;
  // Compiled-plan cache. Its internal mutex is a leaf like stats_'s.
  query::PlanCache plan_cache_;
  // Bumped (under the exclusive latch_) whenever the set of live index
  // objects changes: index create/drop and storage rebuild. Planning holds
  // the shared latch across every ValueIndex dereference it makes
  // (CompileForExecution), and compiled plans record this version so the
  // executor can re-check it under the shared latch before dereferencing
  // probe indexes — a plan that raced a drop is replanned (kBusy), never
  // served against freed memory. Separate from the stats epoch so document
  // churn does not force replans of in-flight plans.
  std::atomic<uint64_t> index_version_{0};

  // Quarantine + repair state. A collection whose table space or recovery
  // pass failed structurally still opens as a shell (so Engine::Open
  // succeeds and Scrub() can repair it) but refuses data operations.
  bool needs_repair_ = false;
  std::string repair_reason_;
  std::string space_path_;     // for recreating a space whose header is gone
  size_t buffer_pages_ = 512;  // for rebuilding the buffer pool
  size_t buffer_shards_ = 0;   // resolved engine/collection shard setting
  uint32_t page_size_hint_ = kDefaultPageSize;
};

}  // namespace xdb

#endif  // XDB_ENGINE_COLLECTION_H_
