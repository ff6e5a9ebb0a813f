// SecondaryIndex: what the XPath value indexes (Section 3.3) and the
// structural (pre, post) indexes have in common.
//
// In the paper every index over XML data is "one more B+tree" behind the
// relational index manager. A collection therefore keeps all of its
// secondary indexes in one list: one create/drop path, one WAL record
// family, one open-or-create step. Per-document maintenance hands each index
// an IndexedDocument and lets the index derive its own entries from it.
//
// The derivation rule: a freshly inserted document is read from the token
// stream already in hand (its canonical node IDs are exactly the ones the
// record builder just stored, so the insert path pays no read-back); every
// other path (delete, reindex after a subtree edit, backfill) reads the
// stored records, whose node IDs include Between()-allocated ones that a
// token round trip would renumber.
#ifndef XDB_INDEX_SECONDARY_INDEX_H_
#define XDB_INDEX_SECONDARY_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/slice.h"
#include "common/status.h"
#include "xml/name_dictionary.h"

namespace xdb {

class NodeLocator;
class RecordManager;
class XmlEventSource;

enum class IndexKind : uint8_t { kValue, kStructural };

/// One element instance's structural facts, as derived from a document walk.
struct StructuralEntry {
  NameId name_id = kEmptyNameId;
  uint32_t pre = 0;    // document-order (start-tag) number within the doc
  uint32_t post = 0;   // completion-order (end-tag) number within the doc
  uint32_t level = 0;  // element nesting depth (root element = 1)
  /// Descendant element count (the interval width): pre numbers of the
  /// subtree's elements are exactly (pre, pre + subtree_size]. Feeds the
  /// stats span sketch; not persisted in the entry value.
  uint32_t subtree_size = 0;
  std::string node_id;  // absolute Dewey node ID
};

/// One document as index maintenance sees it: its virtual-SAX events, the
/// NodeID index that maps its node IDs to record RIDs, and derivations
/// computed once and shared by every index that needs them.
class IndexedDocument {
 public:
  /// A document being inserted, read from its token stream.
  static IndexedDocument FromTokens(uint64_t doc_id, Slice tokens,
                                    const NameDictionary& dict,
                                    NodeLocator* node_index);
  /// A stored document, read from its records.
  static IndexedDocument FromStorage(uint64_t doc_id, RecordManager* records,
                                     const NameDictionary& dict,
                                     NodeLocator* node_index);

  uint64_t doc_id() const { return doc_id_; }
  const NameDictionary& dict() const { return *dict_; }
  NodeLocator* node_index() const { return node_index_; }

  /// A new pass over the document's events.
  std::unique_ptr<XmlEventSource> Events() const;

  /// Every element's (pre, post, level) entry, derived on first use.
  Result<const std::vector<StructuralEntry>*> StructuralEntries();

 private:
  IndexedDocument(uint64_t doc_id, Slice tokens, RecordManager* records,
                  const NameDictionary& dict, NodeLocator* node_index)
      : doc_id_(doc_id),
        tokens_(tokens),
        records_(records),
        dict_(&dict),
        node_index_(node_index) {}

  uint64_t doc_id_;
  Slice tokens_;                      // FromTokens
  RecordManager* records_ = nullptr;  // FromStorage
  const NameDictionary* dict_;
  NodeLocator* node_index_;
  bool structural_ready_ = false;
  std::vector<StructuralEntry> structural_;
};

class SecondaryIndex {
 public:
  SecondaryIndex() = default;
  SecondaryIndex(const SecondaryIndex&) = delete;
  SecondaryIndex& operator=(const SecondaryIndex&) = delete;
  virtual ~SecondaryIndex() = default;

  virtual IndexKind kind() const = 0;
  virtual const std::string& name() const = 0;
  virtual BTree* tree() = 0;

  /// Adds (removes) every entry the document contributes to this index.
  virtual Status AddDocument(IndexedDocument* doc) = 0;
  virtual Status RemoveDocument(IndexedDocument* doc) = 0;
};

}  // namespace xdb

#endif  // XDB_INDEX_SECONDARY_INDEX_H_
