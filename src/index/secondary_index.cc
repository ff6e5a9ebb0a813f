#include "index/secondary_index.h"

#include "index/structural_index.h"
#include "pack/tree_cursor.h"
#include "runtime/virtual_sax.h"

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

}  // namespace xdb
