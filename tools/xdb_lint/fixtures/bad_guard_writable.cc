// Fixture: mutating entry points that skip the replica write guard.
#include "fixture_decls.h"

namespace xdb {

// Mutates (takes the write latch) before ever calling GuardWrite.
Result<uint64_t> Collection::InsertTokens(Transaction* txn, Slice tokens) {
  WriterMutexLock latch(latch_);  // LINT-EXPECT[guard-writable]
  return Apply(tokens);
}

// Calls it, but only AFTER the first state change.
Status Collection::DeleteDocument(Transaction* txn, uint64_t doc_id) {
  engine_->LogDelete(meta_.name, doc_id);  // LINT-EXPECT[guard-writable]
  XDB_RETURN_NOT_OK(GuardWrite());
  return Status::OK();
}

// The write driver appends its WAL record before the guard.
Status Collection::Write(Transaction* txn, DocWrite* op, std::string* new_id) {
  XDB_RETURN_NOT_OK(engine_->LogWrite(meta_.name, *op));  // LINT-EXPECT[guard-writable]
  XDB_RETURN_NOT_OK(GuardWrite());
  WriterMutexLock latch(latch_);
  return ApplyWrite(txn, *op, new_id);
}

// Guards itself but bypasses the driver: a document write must go through
// Write, never apply on its own.
Status Collection::UpdateTextNode(Transaction* txn, uint64_t doc_id,
                                  Slice node_id, Slice text) {
  XDB_RETURN_NOT_OK(GuardWrite());
  WriterMutexLock latch(latch_);  // LINT-EXPECT[guard-writable]
  return ApplyWrite(txn, DocWrite{}, nullptr);
}

// Never calls GuardWritable at all; the diagnostic anchors on the line of
// the function body's opening brace.
Status Engine::RegisterSchema(const std::string& name, Slice text) {  // LINT-EXPECT[guard-writable]
  catalog_.Add(name, text);
  return Status::OK();
}

// Index-drop replay variant that installs before checking the guard: a
// replica would mutate local state before discovering it is read-only.
Status Collection::ApplyDropIndex(IndexKind kind, const std::string& name) {
  WriterMutexLock latch(latch_);  // LINT-EXPECT[guard-writable]
  Remove(name);
  XDB_RETURN_NOT_OK(GuardWrite());
  return Status::OK();
}

}  // namespace xdb
