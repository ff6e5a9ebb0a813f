// Fixture: replay-only Apply* variants that re-log or take the DDL mutex.
#include "fixture_decls.h"

namespace xdb {

Status Collection::ApplyCreateIndex(const SecondaryIndexDef& def) {
  XDB_RETURN_NOT_OK(GuardWrite());
  MutexLock ddl(ddl_mu_);  // LINT-EXPECT[replay-apply]
  return Install(def);
}

Status Collection::ApplyDropIndex(IndexKind kind, const std::string& name) {
  XDB_RETURN_NOT_OK(GuardWrite());
  XDB_RETURN_NOT_OK(engine_->LogIndexDdl(meta_.name, kind, name, nullptr));  // LINT-EXPECT[replay-apply]
  return AppendWal(name);  // LINT-EXPECT[replay-apply]
}

// The replay entry of document writes re-logs what it applies.
Status Collection::ApplyLogged(const DocWrite& op) {
  XDB_RETURN_NOT_OK(engine_->LogWrite(meta_.name, op));  // LINT-EXPECT[replay-apply]
  WriterMutexLock latch(latch_);
  return ApplyWrite(nullptr, op, nullptr);
}

}  // namespace xdb
