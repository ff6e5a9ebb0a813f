#include "index/value_index.h"

#include "index/nodeid_index.h"
#include "runtime/virtual_sax.h"
#include "xpath/parser.h"
#include "xpath/path_containment.h"
#include "xpath/quickxscan.h"

namespace xdb {

ValueIndex::ValueIndex(ValueIndexDef def, BTree* tree)
    : def_(std::move(def)), tree_(tree) {
  Result<xpath::Path> path = xpath::ParsePath(def_.path);
  path_status_ = path.status();
  if (path.ok()) path_ = path.MoveValue();
}

Status ValueIndex::ChangeDocument(IndexedDocument* doc, bool add) {
  XDB_RETURN_NOT_OK(path_status_);
  // Compiled per document: name IDs bind to the dictionary as it is now.
  XDB_ASSIGN_OR_RETURN(
      std::unique_ptr<xpath::QueryTree> tree,
      xpath::QueryTree::Compile(path_, doc->dict(), /*want_values=*/true));
  std::unique_ptr<XmlEventSource> source = doc->Events();
  NodeSequence hits;
  xpath::QuickXScan scan(tree.get(), doc->doc_id());
  XDB_RETURN_NOT_OK(scan.Run(source.get(), &hits));
  for (const ResultNode& hit : hits) {
    XDB_ASSIGN_OR_RETURN(
        Rid rid, doc->node_index()->Lookup(doc->doc_id(), Slice(hit.node_id)));
    XDB_RETURN_NOT_OK(Change(Slice(hit.string_value), doc->doc_id(),
                             Slice(hit.node_id), rid, add));
  }
  return Status::OK();
}

Status ValueIndex::UpdateText(TextUpdate* update) {
  XDB_RETURN_NOT_OK(path_status_);
  XDB_ASSIGN_OR_RETURN(const std::vector<TextUpdate::Ancestor>* ancestors,
                       update->Ancestors());
  const uint64_t doc_id = update->doc_id();
  for (const TextUpdate::Ancestor& a : *ancestors) {
    if (!xpath::PathContains(path_, a.path)) continue;
    std::string before, after;
    XDB_RETURN_NOT_OK(update->Values(a, &before, &after));
    XDB_ASSIGN_OR_RETURN(Rid rid,
                         update->node_index()->Lookup(doc_id, a.node_id));
    XDB_RETURN_NOT_OK(Remove(before, doc_id, a.node_id, rid));
    XDB_RETURN_NOT_OK(Add(after, doc_id, a.node_id, rid));
  }
  return Status::OK();
}

Status ValueIndex::Change(Slice value, uint64_t doc_id, Slice node_id, Rid rid,
                          bool add) {
  std::string key;
  Status st = EncodeTypedKey(def_.type, value, def_.max_string_len, &key);
  if (!st.ok()) {
    // Uncastable value: no entry ("zero ... index entries per record").
    if (st.code() == Status::Code::kInvalidArgument) return Status::OK();
    return st;
  }
  std::string posting;
  EncodePosting(doc_id, node_id, rid.Pack(), &posting);
  if (add) {
    XDB_RETURN_NOT_OK(tree_->Insert(key, posting));
    if (stats_ != nullptr) stats_->OnEntryAdded(key);
  } else {
    XDB_RETURN_NOT_OK(tree_->Delete(key, posting));
    if (stats_ != nullptr) stats_->OnEntryRemoved(key);
  }
  return Status::OK();
}

Status ValueIndex::Scan(const std::optional<KeyBound>& lo,
                        const std::optional<KeyBound>& hi,
                        std::vector<Posting>* out) {
  BTree::Iterator it;
  if (lo.has_value()) {
    XDB_ASSIGN_OR_RETURN(it, tree_->Seek(lo->key));
    // Exclusive lower bound: skip equal keys.
    if (!lo->inclusive) {
      while (it.Valid() && it.key() == Slice(lo->key)) {
        XDB_RETURN_NOT_OK(it.Next());
      }
    }
  } else {
    XDB_ASSIGN_OR_RETURN(it, tree_->SeekToFirst());
  }
  while (it.Valid()) {
    if (hi.has_value()) {
      int c = it.key().Compare(Slice(hi->key));
      if (c > 0 || (c == 0 && !hi->inclusive)) break;
    }
    Posting p;
    Slice node_id;
    uint64_t rid_packed;
    XDB_RETURN_NOT_OK(
        DecodePosting(it.value(), &p.doc_id, &node_id, &rid_packed));
    p.node_id = node_id.ToString();
    p.rid = Rid::Unpack(rid_packed);
    out->push_back(std::move(p));
    XDB_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

Status ValueIndex::ScanEqual(Slice value, std::vector<Posting>* out) {
  std::string key;
  Status st = EncodeTypedKey(def_.type, value, def_.max_string_len, &key);
  if (!st.ok()) {
    if (st.code() == Status::Code::kInvalidArgument) return Status::OK();
    return st;
  }
  KeyBound b{key, true};
  return Scan(b, b, out);
}

}  // namespace xdb
