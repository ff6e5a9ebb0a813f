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
// token round trip would renumber. A text update is the one node-local
// path: UpdateText hands each index a TextUpdate (the text node's element
// ancestors, read from the stored records before the update) and the index
// swaps only the postings of ancestors it indexes; node IDs and the element
// structure do not change, so a structural index has nothing to do.
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
#include "xpath/ast.h"

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

/// One text node's new value as index upkeep sees it, before the record is
/// rewritten: the node's element ancestors with their concrete name paths,
/// derived on first use and shared by every index that asks.
class TextUpdate {
 public:
  /// An element ancestor of the text node: its absolute node ID and its
  /// path from the root (child steps only).
  struct Ancestor {
    std::string node_id;
    xpath::Path path;
  };

  TextUpdate(uint64_t doc_id, Slice text_node_id, Slice new_text,
             RecordManager* records, const NameDictionary& dict,
             NodeLocator* node_index)
      : doc_id_(doc_id),
        text_node_id_(text_node_id),
        new_text_(new_text),
        records_(records),
        dict_(&dict),
        node_index_(node_index) {}

  uint64_t doc_id() const { return doc_id_; }
  NodeLocator* node_index() const { return node_index_; }

  /// The text node's element ancestors, outermost first.
  Result<const std::vector<Ancestor>*> Ancestors();
  /// An ancestor's string value before and after the update (one pass over
  /// its subtree).
  Status Values(const Ancestor& ancestor, std::string* before,
                std::string* after);

 private:
  uint64_t doc_id_;
  Slice text_node_id_;
  Slice new_text_;
  RecordManager* records_;
  const NameDictionary* dict_;
  NodeLocator* node_index_;
  bool ancestors_ready_ = false;
  std::vector<Ancestor> ancestors_;
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
  /// Swaps the entries a text-node update changes. The default does
  /// nothing: only string values depend on text.
  virtual Status UpdateText(TextUpdate* /*update*/) { return Status::OK(); }
};

}  // namespace xdb

#endif  // XDB_INDEX_SECONDARY_INDEX_H_
