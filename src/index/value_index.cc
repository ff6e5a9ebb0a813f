#include "index/value_index.h"

#include "index/nodeid_index.h"
#include "runtime/virtual_sax.h"
#include "xpath/quickxscan.h"

namespace xdb {

Status ValueIndex::ChangeDocument(IndexedDocument* doc, bool add) {
  std::unique_ptr<XmlEventSource> source = doc->Events();
  XDB_ASSIGN_OR_RETURN(
      NodeSequence hits,
      xpath::EvaluateXPath(def_.path, doc->dict(), source.get(), doc->doc_id(),
                           /*want_values=*/true));
  for (const ResultNode& hit : hits) {
    XDB_ASSIGN_OR_RETURN(
        Rid rid, doc->node_index()->Lookup(doc->doc_id(), Slice(hit.node_id)));
    XDB_RETURN_NOT_OK(Change(Slice(hit.string_value), doc->doc_id(),
                             Slice(hit.node_id), rid, add));
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
