// ValueIndex: XPath value indexes, Section 3.3.
//
// "Users can create XPath value indexes on frequently searched elements or
// attributes by specifying a simple XPath expression without predicates,
// such as /catalog//productname, and a data type for the key values. ... A
// value index entry contains (keyval, DocID, NodeID, RID)". Unlike
// relational indexes there may be zero, one or more entries per record.
#ifndef XDB_INDEX_VALUE_INDEX_H_
#define XDB_INDEX_VALUE_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/slice.h"
#include "common/status.h"
#include "index/key_codec.h"
#include "index/secondary_index.h"
#include "storage/page.h"

namespace xdb {

/// Definition of one XPath value index.
struct ValueIndexDef {
  std::string name;
  std::string path;  // predicate-free XPath, e.g. "/catalog//productname"
  ValueType type = ValueType::kString;
  uint32_t max_string_len = 128;  // VARCHAR(n) equivalent for string keys
};

/// One (DocID, NodeID, RID) hit returned from an index probe.
struct Posting {
  uint64_t doc_id = 0;
  std::string node_id;
  Rid rid;
};

/// A bound of a key range probe.
struct KeyBound {
  std::string key;  // typed-encoded
  bool inclusive = true;
};

/// Observer of successful entry adds/removes, keyed by the typed-encoded
/// key. The planner's statistics (query::CollectionStats) implement this so
/// every index-maintenance path — document insert/delete, subtree edits,
/// text updates, backfill — feeds the per-index key-count and distinct-key
/// sketch without per-call-site hooks. Calls happen under the collection's
/// exclusive latch; implementations must not call back into the index.
class ValueIndexStatsListener {
 public:
  virtual ~ValueIndexStatsListener() = default;
  virtual void OnEntryAdded(Slice encoded_key) = 0;
  virtual void OnEntryRemoved(Slice encoded_key) = 0;
};

class ValueIndex : public SecondaryIndex {
 public:
  /// Parses the definition's path once; every document add/remove and
  /// text update reuses it.
  ValueIndex(ValueIndexDef def, BTree* tree);

  const ValueIndexDef& def() const { return def_; }
  IndexKind kind() const override { return IndexKind::kValue; }
  const std::string& name() const override { return def_.name; }
  BTree* tree() override { return tree_; }

  /// Evaluates the index path over the document's events and adds (removes)
  /// one entry per hit, keyed by the hit's string value. "Index keys ... are
  /// generated per record": each hit's RID comes from the NodeID index.
  Status AddDocument(IndexedDocument* doc) override {
    return ChangeDocument(doc, /*add=*/true);
  }
  Status RemoveDocument(IndexedDocument* doc) override {
    return ChangeDocument(doc, /*add=*/false);
  }
  /// Swaps old for new string value on every ancestor of the text node that
  /// the index path selects.
  Status UpdateText(TextUpdate* update) override;

  /// Installs (or clears, with nullptr) the statistics listener.
  void set_stats_listener(ValueIndexStatsListener* listener) {
    stats_ = listener;
  }

  /// Adds an entry for a node whose string value is `value`. Values that do
  /// not cast to the index type produce no entry (returns OK).
  Status Add(Slice value, uint64_t doc_id, Slice node_id, Rid rid) {
    return Change(value, doc_id, node_id, rid, /*add=*/true);
  }
  Status Remove(Slice value, uint64_t doc_id, Slice node_id, Rid rid) {
    return Change(value, doc_id, node_id, rid, /*add=*/false);
  }

  /// Encodes a query literal with this index's type.
  Status EncodeKey(Slice value, std::string* out) const {
    return EncodeTypedKey(def_.type, value, def_.max_string_len, out);
  }

  /// Range probe: postings with lo <= key <= hi (either bound optional),
  /// in (key, doc, node) order.
  Status Scan(const std::optional<KeyBound>& lo,
              const std::optional<KeyBound>& hi, std::vector<Posting>* out);

  /// Equality probe.
  Status ScanEqual(Slice value, std::vector<Posting>* out);

 private:
  Status ChangeDocument(IndexedDocument* doc, bool add);
  Status Change(Slice value, uint64_t doc_id, Slice node_id, Rid rid,
                bool add);

  ValueIndexDef def_;
  Status path_status_;  // outcome of parsing def_.path
  xpath::Path path_;
  BTree* tree_;
  ValueIndexStatsListener* stats_ = nullptr;
};

}  // namespace xdb

#endif  // XDB_INDEX_VALUE_INDEX_H_
