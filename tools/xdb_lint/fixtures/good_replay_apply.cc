// Fixture: correct replay-only Apply* variants — must stay quiet.
#include "fixture_decls.h"

namespace xdb {

// Applies the mutation under the latch; never logs, never touches ddl_mu_.
Status Collection::ApplyCreateIndex(const SecondaryIndexDef& def) {
  XDB_RETURN_NOT_OK(GuardWrite());
  WriterMutexLock latch(latch_);
  return Install(def);
}

Status Collection::ApplyDropIndex(IndexKind kind, const std::string& name) {
  XDB_RETURN_NOT_OK(GuardWrite());
  WriterMutexLock latch(latch_);
  return Remove(name);
}

// Document writes re-applied from the log: the apply stage, no logging.
Status Collection::ApplyLogged(const DocWrite& op) {
  WriterMutexLock latch(latch_);
  return ApplyWrite(nullptr, op, nullptr);
}

// Non-Apply functions may name ddl_mu_ and log freely.
Status Collection::CreateIndex(const SecondaryIndexDef& def) {
  XDB_RETURN_NOT_OK(GuardWrite());
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyCreateIndex(def));
  return engine_->LogIndexDdl(meta_.name, KindOf(def), NameOf(def), &def);
}

}  // namespace xdb
