#include "index/structural_index.h"

#include "common/coding.h"
#include "runtime/virtual_sax.h"

namespace xdb {

void EncodeStructuralKey(NameId name_id, uint64_t doc_id, uint32_t pre,
                         std::string* out) {
  PutBig32(out, name_id);
  PutBig64(out, doc_id);
  PutBig32(out, pre);
}

void EncodeStructuralValue(uint32_t post, uint32_t level, Slice node_id,
                           std::string* out) {
  PutBig32(out, post);
  PutBig32(out, level);
  out->append(node_id.data(), node_id.size());
}

Status DecodeStructuralKey(Slice key, NameId* name_id, uint64_t* doc_id,
                           uint32_t* pre) {
  if (key.size() != 4 + 8 + 4)
    return Status::Corruption("bad structural index key");
  *name_id = DecodeBig32(key.data());
  *doc_id = DecodeBig64(key.data() + 4);
  *pre = DecodeBig32(key.data() + 12);
  return Status::OK();
}

Status DecodeStructuralValue(Slice value, uint32_t* post, uint32_t* level,
                             Slice* node_id) {
  if (value.size() < 8)
    return Status::Corruption("bad structural index value");
  *post = DecodeBig32(value.data());
  *level = DecodeBig32(value.data() + 4);
  *node_id = Slice(value.data() + 8, value.size() - 8);
  return Status::OK();
}

Status DeriveStructuralEntries(XmlEventSource* source,
                               std::vector<StructuralEntry>* out) {
  out->clear();
  uint32_t pre = 0;
  uint32_t post = 0;
  std::vector<size_t> open;  // indexes into *out of unclosed elements
  XmlEvent ev;
  for (;;) {
    XDB_ASSIGN_OR_RETURN(bool more, source->Next(&ev));
    if (!more) break;
    if (ev.type == XmlEvent::Type::kStartElement) {
      StructuralEntry e;
      e.name_id = ev.local;
      e.pre = pre++;
      // Level comes from the derivation's own element stack, not ev.depth:
      // event sources disagree on whether the document node counts as a
      // depth (TokenStreamSource roots elements at 1, StoredDocSource at
      // 0), and index maintenance deletes by exact (key, value) match, so
      // insert-time and removal-time derivations must be byte-identical.
      e.level = static_cast<uint32_t>(open.size()) + 1;
      e.node_id = ev.node_id.ToString();
      open.push_back(out->size());
      out->push_back(std::move(e));
    } else if (ev.type == XmlEvent::Type::kEndElement) {
      if (open.empty())
        return Status::Corruption("unbalanced end-element event");
      StructuralEntry& e = (*out)[open.back()];
      e.post = post++;
      // Elements opened after e and before its close are exactly its
      // descendants: the interval (e.pre, current pre counter).
      e.subtree_size = pre - e.pre - 1;
      open.pop_back();
    }
  }
  if (!open.empty())
    return Status::Corruption("unclosed element in event stream");
  return Status::OK();
}

Status StructuralIndex::ChangeDocument(IndexedDocument* doc, bool add) {
  XDB_ASSIGN_OR_RETURN(const std::vector<StructuralEntry>* entries,
                       doc->StructuralEntries());
  return ChangeEntries(doc->dict(), doc->doc_id(), *entries, add);
}

Status StructuralIndex::ChangeEntries(
    const NameDictionary& dict, uint64_t doc_id,
    const std::vector<StructuralEntry>& entries, bool add) {
  std::string key, value;
  for (const StructuralEntry& e : entries) {
    XDB_ASSIGN_OR_RETURN(std::string local, dict.Name(e.name_id));
    if (!CoversName(local)) continue;
    key.clear();
    value.clear();
    EncodeStructuralKey(e.name_id, doc_id, e.pre, &key);
    EncodeStructuralValue(e.post, e.level, Slice(e.node_id), &value);
    if (add) {
      XDB_RETURN_NOT_OK(tree_->Insert(key, value));
      if (stats_ != nullptr) stats_->OnElementAdded(local, e.subtree_size);
    } else {
      XDB_RETURN_NOT_OK(tree_->Delete(key, value));
      if (stats_ != nullptr) stats_->OnElementRemoved(local, e.subtree_size);
    }
  }
  return Status::OK();
}

Status StructuralIndex::Scan(NameId name_id,
                             std::vector<StructuralPosting>* out) {
  out->clear();
  std::string lo;
  PutBig32(&lo, name_id);  // (name_id, doc 0, pre 0) lower bound
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->Seek(lo));
  while (it.Valid()) {
    NameId got_name;
    StructuralPosting p;
    Slice node_id;
    XDB_RETURN_NOT_OK(
        DecodeStructuralKey(it.key(), &got_name, &p.doc_id, &p.pre));
    if (got_name != name_id) break;  // past this name's contiguous range
    XDB_RETURN_NOT_OK(
        DecodeStructuralValue(it.value(), &p.post, &p.level, &node_id));
    p.node_id = node_id.ToString();
    out->push_back(std::move(p));
    XDB_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

Result<uint64_t> StructuralIndex::CountEntries() {
  uint64_t n = 0;
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree_->SeekToFirst());
  while (it.Valid()) {
    n++;
    XDB_RETURN_NOT_OK(it.Next());
  }
  return n;
}

}  // namespace xdb
