// StructuralIndex: (pre, post)-interval indexing of element structure, the
// XISS/R scheme adapted to this engine's Dewey NodeIDs.
//
// Where value indexes (Section 3.3/4.3) prune candidates by *content*, a
// structural index prunes by *shape*: every element instance is numbered in
// document order (pre) and completion order (post), so
//
//   a is an ancestor of b  <=>  pre(a) < pre(b)  AND  post(b) < post(a)
//
// and "all instances of element name N" — the expensive part of a
// //a//N-shaped step — becomes one B+tree range scan instead of a
// QuickXScan tree walk per candidate document. Entries live in the same
// B+tree infrastructure as value indexes:
//
//   key   = [name_id big32][doc_id big64][pre big32]
//   value = [post big32][level big32][node id bytes]
//
// so one name's entries are contiguous and come back sorted by
// (doc_id, pre) — which IS (doc_id, document order) — exactly the order the
// executor's interval-merge join and the parallel-execution determinism
// contract need. The Dewey NodeID is carried in the value because interval
// containment and Dewey prefix containment are the same relation here
// (nested intervals <=> prefix ancestry), letting the executor anchor value
// postings under structural entries with a plain prefix test during the
// ordered merge.
//
// (pre, post, level) are derived from the same virtual-SAX event walk that
// assigns the tree-packer's Dewey IDs — no second parse of the XML text.
#ifndef XDB_INDEX_STRUCTURAL_INDEX_H_
#define XDB_INDEX_STRUCTURAL_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/slice.h"
#include "common/status.h"
#include "index/secondary_index.h"
#include "xml/name_dictionary.h"

namespace xdb {

class XmlEventSource;

/// Definition of one structural index.
struct StructuralIndexDef {
  std::string name;
  /// Local element name to index; empty indexes every element name (the
  /// "optionally per-name" knob: a per-name index stays small and is only
  /// consulted for steps testing exactly that name).
  std::string element_name;
};

/// One hit from a structural probe: an element instance of the probed name.
struct StructuralPosting {
  uint64_t doc_id = 0;
  uint32_t pre = 0;
  uint32_t post = 0;
  uint32_t level = 0;
  std::string node_id;
};

/// Observer of entry adds/removes, keyed by the element's local name with
/// its subtree span. query::CollectionStats implements this to maintain the
/// per-name count + average-span sketch every maintenance path feeds (same
/// pattern as ValueIndexStatsListener). Calls happen under the collection's
/// exclusive latch; implementations must not call back into the index.
class StructuralIndexStatsListener {
 public:
  virtual ~StructuralIndexStatsListener() = default;
  virtual void OnElementAdded(Slice local_name, uint32_t subtree_size) = 0;
  virtual void OnElementRemoved(Slice local_name, uint32_t subtree_size) = 0;
};

/// Walks one document's virtual-SAX events and numbers every element:
/// pre increments at each start-element, post at each end-element, level is
/// the event's nesting depth, node_id is the event's absolute Dewey ID (the
/// token-stream source synthesizes the canonical IDs the tree-packer
/// assigns; the stored-doc source reports the real stored IDs, which is what
/// keeps reindex-after-subtree-edit faithful to Between()-allocated IDs).
Status DeriveStructuralEntries(XmlEventSource* source,
                               std::vector<StructuralEntry>* out);

class StructuralIndex : public SecondaryIndex {
 public:
  StructuralIndex(StructuralIndexDef def, BTree* tree)
      : def_(std::move(def)), tree_(tree) {}

  const StructuralIndexDef& def() const { return def_; }
  IndexKind kind() const override { return IndexKind::kStructural; }
  const std::string& name() const override { return def_.name; }
  BTree* tree() override { return tree_; }

  /// Adds/removes the document's shared structural entries (derived once
  /// per document, whichever structural index asks first).
  Status AddDocument(IndexedDocument* doc) override {
    return ChangeDocument(doc, /*add=*/true);
  }
  Status RemoveDocument(IndexedDocument* doc) override {
    return ChangeDocument(doc, /*add=*/false);
  }

  /// Installs (or clears, with nullptr) the statistics listener.
  void set_stats_listener(StructuralIndexStatsListener* listener) {
    stats_ = listener;
  }

  /// True when this index holds entries for elements named `local_name`
  /// (all-names index, or the per-name index for exactly that name).
  bool CoversName(Slice local_name) const {
    return def_.element_name.empty() || Slice(def_.element_name) == local_name;
  }

  /// Adds/removes one document's derived entries. `dict` renders local
  /// names for the stats listener. Both are idempotent per entry (B+tree
  /// exact (key, value) insert/delete), matching WAL-replay semantics.
  Status AddEntries(const NameDictionary& dict, uint64_t doc_id,
                    const std::vector<StructuralEntry>& entries) {
    return ChangeEntries(dict, doc_id, entries, /*add=*/true);
  }
  Status RemoveEntries(const NameDictionary& dict, uint64_t doc_id,
                       const std::vector<StructuralEntry>& entries) {
    return ChangeEntries(dict, doc_id, entries, /*add=*/false);
  }

  /// Range-scans every instance of `name_id` across all documents, in
  /// (doc_id, pre) order — document order within each document.
  Status Scan(NameId name_id, std::vector<StructuralPosting>* out);

  /// Total entries in the index (full scan; tests and stats rebuilds only).
  Result<uint64_t> CountEntries();

 private:
  Status ChangeDocument(IndexedDocument* doc, bool add);
  Status ChangeEntries(const NameDictionary& dict, uint64_t doc_id,
                       const std::vector<StructuralEntry>& entries, bool add);

  StructuralIndexDef def_;
  BTree* tree_;
  StructuralIndexStatsListener* stats_ = nullptr;
};

// Key/value codec, exposed for tests.
void EncodeStructuralKey(NameId name_id, uint64_t doc_id, uint32_t pre,
                         std::string* out);
void EncodeStructuralValue(uint32_t post, uint32_t level, Slice node_id,
                           std::string* out);
Status DecodeStructuralKey(Slice key, NameId* name_id, uint64_t* doc_id,
                           uint32_t* pre);
Status DecodeStructuralValue(Slice value, uint32_t* post, uint32_t* level,
                             Slice* node_id);

}  // namespace xdb

#endif  // XDB_INDEX_STRUCTURAL_INDEX_H_
