#include "index/secondary_index.h"

#include "index/structural_index.h"
#include "pack/tree_cursor.h"
#include "runtime/virtual_sax.h"
#include "xml/node_id.h"

namespace xdb {

IndexedDocument IndexedDocument::FromTokens(uint64_t doc_id, Slice tokens,
                                            const NameDictionary& dict,
                                            NodeLocator* node_index) {
  return IndexedDocument(doc_id, tokens, nullptr, dict, node_index);
}

IndexedDocument IndexedDocument::FromStorage(uint64_t doc_id,
                                             RecordManager* records,
                                             const NameDictionary& dict,
                                             NodeLocator* node_index) {
  return IndexedDocument(doc_id, Slice(), records, dict, node_index);
}

std::unique_ptr<XmlEventSource> IndexedDocument::Events() const {
  if (records_ == nullptr) return std::make_unique<TokenStreamSource>(tokens_);
  return std::make_unique<StoredDocSource>(records_, node_index_, doc_id_);
}

Result<const std::vector<StructuralEntry>*>
IndexedDocument::StructuralEntries() {
  if (!structural_ready_) {
    std::unique_ptr<XmlEventSource> source = Events();
    XDB_RETURN_NOT_OK(DeriveStructuralEntries(source.get(), &structural_));
    structural_ready_ = true;
  }
  return &structural_;
}

Result<const std::vector<TextUpdate::Ancestor>*> TextUpdate::Ancestors() {
  if (ancestors_ready_) return &ancestors_;
  XDB_ASSIGN_OR_RETURN(Rid rid, node_index_->Lookup(doc_id_, text_node_id_));
  std::string record;
  XDB_RETURN_NOT_OK(records_->Get(rid, &record));
  RecordWalker walker((Slice(record)));
  XDB_RETURN_NOT_OK(walker.Init());
  xpath::Path path;
  path.absolute = true;
  auto add = [&](std::string node_id, NameId local) -> Status {
    xpath::Step step;  // a child step naming the ancestor
    XDB_ASSIGN_OR_RETURN(step.name, dict_->Name(local));
    path.steps.push_back(std::move(step));
    ancestors_.push_back(Ancestor{std::move(node_id), path});
    return Status::OK();
  };
  // Ancestors outside the record come from its header's root path; those
  // inside from a walk down to the text node.
  const RecordHeader& header = walker.header();
  std::vector<Slice> levels;
  XDB_RETURN_NOT_OK(nodeid::SplitLevels(header.context_node_id, &levels));
  if (levels.size() != header.root_path.size())
    return Status::Corruption("record root path/context id mismatch");
  std::string prefix;
  for (size_t i = 0; i < levels.size(); i++) {
    prefix.append(levels[i].data(), levels[i].size());
    XDB_RETURN_NOT_OK(add(prefix, header.root_path[i].local));
  }
  for (;;) {
    RecordWalker::Event ev;
    XDB_RETURN_NOT_OK(walker.Next(&ev));
    if (ev.type == RecordWalker::EventType::kDone)
      return Status::NotFound("text node not found for index maintenance");
    if (ev.type != RecordWalker::EventType::kStart) continue;
    Slice abs(ev.entry.abs_id);
    if (abs == text_node_id_) break;
    if (ev.entry.kind != NodeKind::kElement) continue;
    if (nodeid::IsAncestor(abs, text_node_id_)) {
      XDB_RETURN_NOT_OK(add(ev.entry.abs_id, ev.entry.local));
    } else {
      walker.SkipChildren();
    }
  }
  ancestors_ready_ = true;
  return &ancestors_;
}

Status TextUpdate::Values(const Ancestor& ancestor, std::string* before,
                          std::string* after) {
  StoredDocSource source(records_, node_index_, doc_id_, ancestor.node_id);
  XmlEvent ev;
  for (;;) {
    XDB_ASSIGN_OR_RETURN(bool more, source.Next(&ev));
    if (!more) return Status::OK();
    if (ev.type != XmlEvent::Type::kText) continue;
    before->append(ev.value.data(), ev.value.size());
    Slice now = ev.node_id == text_node_id_ ? new_text_ : ev.value;
    after->append(now.data(), now.size());
  }
}

}  // namespace xdb
