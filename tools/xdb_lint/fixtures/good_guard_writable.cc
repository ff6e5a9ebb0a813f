// Fixture: correctly guarded entry points — must stay quiet.
#include "fixture_decls.h"

namespace xdb {

// The write driver guards first, then logs, then applies under the latch.
Status Collection::Write(Transaction* txn, DocWrite* op, std::string* new_id) {
  XDB_RETURN_NOT_OK(GuardWrite());
  XDB_RETURN_NOT_OK(engine_->LogWrite(meta_.name, *op));
  WriterMutexLock latch(latch_);
  return ApplyWrite(txn, *op, new_id);
}

// A document write's only path is the driver.
Result<uint64_t> Collection::InsertTokens(Transaction* txn, Slice tokens) {
  DocWrite op{.kind = WalRecordType::kInsertDocument, .data = tokens};
  XDB_RETURN_NOT_OK(Write(txn, &op));
  return op.doc_id;
}

// Delegation counts: InsertDocument's only path runs through InsertTokens,
// which guards first itself.
Result<uint64_t> Collection::InsertDocument(Transaction* txn, Slice xml) {
  Tokens tokens;
  XDB_RETURN_NOT_OK(Parse(xml, &tokens));
  return InsertTokens(txn, tokens.data());
}

Status Engine::CreateCollection(const std::string& name) {
  XDB_RETURN_NOT_OK(GuardWritable());
  MutexLock lock(mu_);
  return catalog_.Create(name);
}

// Index DDL: the logging entry point delegates to its Apply* variant (which
// guards first itself) before writing the WAL record.
Status Collection::CreateIndex(const SecondaryIndexDef& def) {
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyCreateIndex(def));
  return engine_->LogIndexDdl(meta_.name, KindOf(def), NameOf(def), &def);
}

Status Collection::ApplyCreateIndex(const SecondaryIndexDef& def) {
  XDB_RETURN_NOT_OK(GuardWrite());
  WriterMutexLock latch(latch_);
  return Install(def);
}

}  // namespace xdb
