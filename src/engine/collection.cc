#include "engine/collection.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>

#include "common/coding.h"
#include "engine/engine.h"
#include "obs/slow_query_log.h"
#include "obs/wait_state.h"
#include "query/executor.h"
#include "runtime/iterators.h"
#include "xml/node_id.h"
#include "xml/serializer.h"
#include "xpath/parser.h"
#include "xpath/quickxscan.h"

namespace xdb {

namespace {

/// Runs an operation inside the caller's transaction, or wraps it in an
/// autocommit transaction when none is given.
class AutoTxn {
 public:
  AutoTxn(Engine* engine, Transaction* txn, IsolationMode mode)
      : engine_(engine) {
    if (txn == nullptr) {
      own_ = engine->Begin(mode);
      own_.autocommit = true;
      txn_ = &own_;
      owned_ = true;
    } else {
      txn_ = txn;
    }
  }
  ~AutoTxn() {
    if (owned_ && !own_.committed && !own_.aborted)
      (void)engine_->Abort(&own_);
  }

  Transaction* get() { return txn_; }

  Status Finish(Status st) {
    if (!owned_) return st;
    if (st.ok()) return engine_->Commit(&own_);
    (void)engine_->Abort(&own_);
    return st;
  }

 private:
  Engine* engine_;
  Transaction own_;
  Transaction* txn_ = nullptr;
  bool owned_ = false;
};

std::string DocKey(uint64_t doc_id) {
  std::string key;
  PutBig64(&key, doc_id);
  return key;
}

/// Nodes one document contributes to the collection's node-count statistic
/// (elements, attributes, text). One cheap pass over the token buffer; a
/// parse error just under-counts (the estimate self-corrects on churn).
uint64_t CountStatNodes(Slice tokens) {
  TokenReader reader(tokens);
  Token t;
  uint64_t n = 0;
  for (;;) {
    auto more = reader.Next(&t);
    if (!more.ok() || !more.value()) break;
    if (t.kind == TokenKind::kStartElement || t.kind == TokenKind::kAttribute ||
        t.kind == TokenKind::kText)
      n++;
  }
  return n;
}

std::unique_ptr<SecondaryIndex> MakeIndex(const SecondaryIndexDef& def,
                                          BTree* tree) {
  if (const auto* vdef = std::get_if<ValueIndexDef>(&def))
    return std::make_unique<ValueIndex>(*vdef, tree);
  return std::make_unique<StructuralIndex>(std::get<StructuralIndexDef>(def),
                                           tree);
}

}  // namespace

Status Collection::ReadLockDoc(Transaction* txn, uint64_t doc_id) {
  if (txn->mode == IsolationMode::kSnapshot && meta_.mvcc_enabled)
    return Status::OK();  // snapshot readers never lock
  return engine_->locks()->LockDocument(txn->id, doc_id, LockMode::kS);
}

Status Collection::RequireDoc(uint64_t doc_id) {
  XDB_ASSIGN_OR_RETURN(bool exists, docid_tree_->Contains(DocKey(doc_id)));
  return exists ? Status::OK() : Status::NotFound("no such document");
}

Result<uint64_t> Collection::InsertDocument(Transaction* txn, Slice xml) {
  // Guard before parsing: the parser interns names into the engine-wide
  // dictionary, and a replica's dictionary must only grow from the WAL.
  XDB_RETURN_NOT_OK(GuardWrite());
  Parser parser = engine_->MakeParser();
  TokenWriter tokens;
  XDB_RETURN_NOT_OK(parser.Parse(xml, &tokens));
  if (!meta_.schema_name.empty()) {
    XDB_ASSIGN_OR_RETURN(const schema::CompiledSchema* cs,
                         engine_->FindSchema(meta_.schema_name));
    TokenWriter validated;
    schema::ValidatorVm vm(cs, engine_->dict());
    XDB_RETURN_NOT_OK(vm.Validate(tokens.data(), &validated));
    return InsertTokens(txn, validated.data());
  }
  return InsertTokens(txn, tokens.data());
}

Result<uint64_t> Collection::InsertTokens(Transaction* txn, Slice tokens) {
  DocWrite op{.kind = WalRecordType::kInsertDocument, .data = tokens};
  XDB_RETURN_NOT_OK(Write(txn, &op));
  return op.doc_id;
}

Status Collection::Write(Transaction* txn, DocWrite* op,
                         std::string* new_id) {
  XDB_RETURN_NOT_OK(GuardWrite());
  AutoTxn at(engine_, txn, IsolationMode::kLocking);
  const bool whole_doc = op->kind == WalRecordType::kInsertDocument ||
                         op->kind == WalRecordType::kDeleteDocument;
  if (op->kind == WalRecordType::kInsertDocument) {
    MutexLock lock(docid_mu_);
    op->doc_id = meta_.next_doc_id++;
  }
  Status st = [&]() -> Status {
    LockManager* locks = engine_->locks();
    const uint64_t txn_id = at.get()->id;
    XDB_RETURN_NOT_OK(locks->LockDocument(
        txn_id, op->doc_id, whole_doc ? LockMode::kX : LockMode::kIX));
    if (!whole_doc)
      XDB_RETURN_NOT_OK(
          locks->LockNode(txn_id, op->doc_id, op->node, LockMode::kX));
    if (op->kind == WalRecordType::kDeleteDocument) {
      // The X lock pins existence, so a delete of a missing document fails
      // here, before it is logged; the latch covers only the probe.
      ReaderMutexLock latch(latch_);
      XDB_RETURN_NOT_OK(RequireDoc(op->doc_id));
    }
    // The WAL append happens outside the latch: replay holds the WAL lock
    // while taking collection latches, so the reverse nesting would invert.
    XDB_RETURN_NOT_OK(engine_->LogWrite(meta_.name, *op));
    WriterMutexLock latch(latch_);
    return ApplyWrite(at.get(), *op, new_id);
  }();
  return at.Finish(st);
}

Status Collection::ApplyWrite(Transaction* txn, const DocWrite& op,
                              std::string* new_id) {
  using K = WalRecordType;
  // Index upkeep against the pre-image, all under this one exclusive latch
  // section so queries never see postings for half-written records. A text
  // update swaps postings node-locally; a delete or subtree edit removes the
  // document's entries (a subtree edit changes ancestor string values and
  // renumbers (pre, post) after the splice point).
  if (op.kind == K::kUpdateNode) {
    TextUpdate update(op.doc_id, op.node, op.data, records_.get(),
                      *engine_->dict(), node_index_.get());
    for (OwnedIndex& owned : indexes_)
      XDB_RETURN_NOT_OK(owned.index->UpdateText(&update));
  } else if (op.kind != K::kInsertDocument) {
    XDB_RETURN_NOT_OK(RemoveFromIndexes(op.doc_id));
  }
  Status st = [&]() -> Status {
    switch (op.kind) {
      case K::kInsertDocument:
        return InsertRecords(txn, op.doc_id, op.data);
      case K::kDeleteDocument:
        return DeleteRecords(op.doc_id);
      case K::kUpdateNode:
        return ReplaceText(txn, op.doc_id, op.node, op.data);
      case K::kInsertSubtree:
        return GraftSubtree(op.doc_id, op.node, op.after, op.data, new_id);
      default:
        return PruneSubtree(op.doc_id, op.node);
    }
  }();
  // Index upkeep against the post-image. An inserted document is read from
  // the tokens in hand (they carry the canonical node IDs just stored); a
  // subtree edit re-reads the stored document — also when the edit failed,
  // so a refused edit leaves the document's entries as they were.
  if (op.kind == K::kInsertDocument && st.ok()) {
    IndexedDocument doc = IndexedDocument::FromTokens(
        op.doc_id, op.data, *engine_->dict(), node_index_.get());
    st = AddToIndexes(&doc);
  } else if (op.kind == K::kInsertSubtree || op.kind == K::kDeleteSubtree) {
    IndexedDocument doc = StoredDocument(op.doc_id);
    Status added = AddToIndexes(&doc);
    if (st.ok()) st = added;
  }
  XDB_RETURN_NOT_OK(st);
  // Statistics last, so a failed write never counts. Every write path
  // (clients, WAL replay, scrub salvage) runs here, which keeps the
  // incremental counters in step with the data.
  if (op.kind == K::kInsertDocument) {
    stats_.NoteDocumentInserted(CountStatNodes(op.data));
  } else if (op.kind == K::kDeleteDocument) {
    stats_.NoteDocumentDeleted();
  } else {
    stats_.NoteDocumentMutated();
  }
  return Status::OK();
}

Status Collection::ApplyLogged(const DocWrite& op) {
  if (op.kind == WalRecordType::kInsertDocument) {
    MutexLock lock(docid_mu_);
    meta_.next_doc_id = std::max(meta_.next_doc_id, op.doc_id + 1);
  }
  Transaction txn = engine_->Begin(IsolationMode::kLocking);
  Status st = [&]() -> Status {
    WriterMutexLock latch(latch_);
    // Idempotency: an insert whose DocID is stored, or a delete whose DocID
    // is gone (kNotFound below), was already applied.
    if (op.kind == WalRecordType::kInsertDocument) {
      XDB_ASSIGN_OR_RETURN(bool exists,
                           docid_tree_->Contains(DocKey(op.doc_id)));
      if (exists) return Status::OK();
    } else if (op.kind == WalRecordType::kDeleteDocument) {
      XDB_RETURN_NOT_OK(RequireDoc(op.doc_id));
    }
    return ApplyWrite(&txn, op, nullptr);
  }();
  if (st.ok()) return engine_->Commit(&txn);
  (void)engine_->Abort(&txn);
  return st.IsNotFound() ? Status::OK() : st;
}

Status Collection::InsertRecords(Transaction* txn, uint64_t doc_id,
                                 Slice tokens) {
  uint64_t version = 0;
  if (meta_.mvcc_enabled) {
    XDB_ASSIGN_OR_RETURN(version,
                         engine_->txns()->WriteVersion(txn, versions_.get()));
  }
  RecordBuilderOptions rb_options;
  rb_options.record_budget = record_budget_;
  RecordBuilder builder(rb_options);
  Status st = builder.Build(tokens, [&](PackedRecordOut&& rec) -> Status {
    XDB_ASSIGN_OR_RETURN(Rid rid, records_->Insert(rec.bytes));
    XDB_RETURN_NOT_OK(node_index_->AddRecord(doc_id, rec.bytes, rid));
    if (meta_.mvcc_enabled) {
      XDB_RETURN_NOT_OK(
          versions_->AddRecord(doc_id, version, rec.bytes, rid));
    }
    return Status::OK();
  });
  XDB_RETURN_NOT_OK(st);
  return docid_tree_->Insert(DocKey(doc_id), Slice());
}

IndexedDocument Collection::StoredDocument(uint64_t doc_id) {
  return IndexedDocument::FromStorage(doc_id, records_.get(), *engine_->dict(),
                                      node_index_.get());
}

Status Collection::AddToIndexes(IndexedDocument* doc) {
  for (OwnedIndex& owned : indexes_)
    XDB_RETURN_NOT_OK(owned.index->AddDocument(doc));
  return Status::OK();
}

Status Collection::RemoveFromIndexes(uint64_t doc_id) {
  if (indexes_.empty()) return Status::OK();
  // From the stored records: the entries to delete carry exactly the node
  // IDs (and, for structural entries, the (pre, post) numbering implied by
  // their document order) that AddDocument wrote.
  IndexedDocument doc = StoredDocument(doc_id);
  for (OwnedIndex& owned : indexes_)
    XDB_RETURN_NOT_OK(owned.index->RemoveDocument(&doc));
  return Status::OK();
}

NodeLocator* Collection::ReadLocator(Transaction* txn, SnapshotLocator* snap) {
  if (txn->mode != IsolationMode::kSnapshot || !meta_.mvcc_enabled)
    return node_index_.get();
  *snap = SnapshotLocator(versions_.get(),
                          engine_->txns()->Snapshot(txn, versions_.get()));
  return snap;
}

Status Collection::DeleteDocument(Transaction* txn, uint64_t doc_id) {
  DocWrite op{.kind = WalRecordType::kDeleteDocument, .doc_id = doc_id};
  return Write(txn, &op);
}

Status Collection::DeleteRecords(uint64_t doc_id) {
  std::set<uint64_t> rids;
  std::vector<Rid> current;
  XDB_RETURN_NOT_OK(node_index_->ListDocRecords(doc_id, &current));
  for (Rid r : current) rids.insert(r.Pack());
  if (meta_.mvcc_enabled) {
    std::vector<Rid> freed;
    XDB_RETURN_NOT_OK(versions_->PurgeVersionsBefore(
        doc_id, std::numeric_limits<uint64_t>::max(), &freed));
    for (Rid r : freed) rids.insert(r.Pack());
  }
  XDB_RETURN_NOT_OK(node_index_->RemoveDocEntries(doc_id));
  for (uint64_t packed : rids) {
    XDB_RETURN_NOT_OK(records_->Delete(Rid::Unpack(packed)));
  }
  return docid_tree_->Delete(DocKey(doc_id), Slice());
}

Status Collection::UpdateTextNode(Transaction* txn, uint64_t doc_id,
                                  Slice node_id, Slice new_text) {
  DocWrite op{.kind = WalRecordType::kUpdateNode,
              .doc_id = doc_id,
              .node = node_id,
              .data = new_text};
  return Write(txn, &op);
}

Status Collection::ReplaceText(Transaction* txn, uint64_t doc_id,
                               Slice node_id, Slice text) {
  XDB_ASSIGN_OR_RETURN(Rid rid, node_index_->Lookup(doc_id, node_id));
  std::string old_record;
  XDB_RETURN_NOT_OK(records_->Get(rid, &old_record));
  XDB_ASSIGN_OR_RETURN(std::string new_record,
                       ReplaceTextValue(old_record, node_id, text));
  if (!meta_.mvcc_enabled) return records_->Update(rid, new_record);
  // MVCC: copy-on-write of the changed record under a new version.
  XDB_ASSIGN_OR_RETURN(uint64_t version,
                       engine_->txns()->WriteVersion(txn, versions_.get()));
  XDB_ASSIGN_OR_RETURN(Rid new_rid, records_->Insert(new_record));
  // New version's entries: previous effective entries, with the changed
  // record's entries re-pointed at the new RID.
  XDB_ASSIGN_OR_RETURN(
      uint64_t prev_ver,
      versions_->EffectiveVersion(doc_id,
                                  std::numeric_limits<uint64_t>::max() - 1));
  std::vector<std::pair<std::string, Rid>> entries;
  XDB_RETURN_NOT_OK(versions_->ListVersionEntries(doc_id, prev_ver, &entries));
  for (auto& [upper, entry_rid] : entries) {
    Rid target = (entry_rid == rid) ? new_rid : entry_rid;
    XDB_RETURN_NOT_OK(versions_->AddEntry(doc_id, version, upper, target));
  }
  // The unversioned NodeID index tracks the newest version.
  XDB_RETURN_NOT_OK(node_index_->RemoveRecord(doc_id, old_record, rid));
  return node_index_->AddRecord(doc_id, new_record, new_rid);
}

Status Collection::CollectSubtreeRecords(uint64_t doc_id, Slice node_id,
                                         Slice record,
                                         std::vector<Rid>* out) {
  // Proxies inside the subtree name evicted records; those records' context
  // node is inside the subtree, so their entire content (and their own
  // proxies, recursively) belongs to it.
  std::vector<std::string> worklist;
  {
    RecordWalker walker(record);
    XDB_RETURN_NOT_OK(walker.Init());
    for (;;) {
      RecordWalker::Event ev;
      XDB_RETURN_NOT_OK(walker.Next(&ev));
      if (ev.type == RecordWalker::EventType::kDone) break;
      if (ev.type != RecordWalker::EventType::kStart) continue;
      Slice abs(ev.entry.abs_id);
      if (ev.entry.kind == NodeKind::kProxy) {
        if (abs == node_id || nodeid::IsAncestor(node_id, abs))
          worklist.push_back(ev.entry.abs_id);
      } else if (ev.entry.kind == NodeKind::kElement && abs != node_id &&
                 !nodeid::IsAncestor(abs, node_id) &&
                 !nodeid::IsAncestor(node_id, abs)) {
        walker.SkipChildren();  // disjoint sibling: nothing to find inside
      }
    }
  }
  while (!worklist.empty()) {
    std::string proxy_abs = std::move(worklist.back());
    worklist.pop_back();
    XDB_ASSIGN_OR_RETURN(Rid rid, node_index_->Lookup(doc_id, proxy_abs));
    if (std::find(out->begin(), out->end(), rid) != out->end()) continue;
    out->push_back(rid);
    std::string bytes;
    XDB_RETURN_NOT_OK(records_->Get(rid, &bytes));
    RecordWalker walker((Slice(bytes)));
    XDB_RETURN_NOT_OK(walker.Init());
    for (;;) {
      RecordWalker::Event ev;
      XDB_RETURN_NOT_OK(walker.Next(&ev));
      if (ev.type == RecordWalker::EventType::kDone) break;
      if (ev.type == RecordWalker::EventType::kStart &&
          ev.entry.kind == NodeKind::kProxy)
        worklist.push_back(ev.entry.abs_id);
    }
  }
  return Status::OK();
}

Result<std::string> Collection::InsertSubtree(Transaction* txn,
                                              uint64_t doc_id,
                                              Slice parent_id,
                                              Slice after_sibling_id,
                                              Slice fragment) {
  XDB_RETURN_NOT_OK(GuardWrite());  // before parsing, as in InsertDocument
  if (meta_.mvcc_enabled)
    return Status::NotSupported(
        "subtree operations on MVCC collections are future work");
  if (parent_id.empty())
    return Status::InvalidArgument(
        "subtrees are inserted under an element, not the document node");
  Parser parser = engine_->MakeParser();
  TokenWriter tokens;
  XDB_RETURN_NOT_OK(parser.Parse(fragment, &tokens));
  DocWrite op{.kind = WalRecordType::kInsertSubtree,
              .doc_id = doc_id,
              .node = parent_id,
              .after = after_sibling_id,
              .data = tokens.data()};
  std::string new_id;
  XDB_RETURN_NOT_OK(Write(txn, &op, &new_id));
  return new_id;
}

Status Collection::GraftSubtree(uint64_t doc_id, Slice parent_id,
                                Slice after_sibling_id, Slice tokens,
                                std::string* new_id) {
  XDB_ASSIGN_OR_RETURN(Rid parent_rid,
                       node_index_->Lookup(doc_id, parent_id));
  std::string parent_record;
  XDB_RETURN_NOT_OK(records_->Get(parent_rid, &parent_record));

  // One walk of the parent's record finds the parent's direct children
  // (inline entries and proxies, in order) and the element path down to the
  // parent, which the new record's root path continues.
  RecordHeader header;
  std::vector<std::string> child_ids;
  bool parent_is_element = false;
  {
    RecordWalker walker((Slice(parent_record)));
    XDB_RETURN_NOT_OK(walker.Init());
    header.namespaces = walker.header().namespaces;
    header.root_path = walker.header().root_path;
    for (;;) {
      RecordWalker::Event ev;
      XDB_RETURN_NOT_OK(walker.Next(&ev));
      if (ev.type == RecordWalker::EventType::kDone) break;
      if (ev.type != RecordWalker::EventType::kStart) continue;
      Slice abs(ev.entry.abs_id);
      const bool element = ev.entry.kind == NodeKind::kElement;
      auto eparent = nodeid::Parent(abs);
      if (eparent.ok() && eparent.value() == parent_id) {
        child_ids.push_back(ev.entry.abs_id);
        if (element) walker.SkipChildren();
      } else if (abs == parent_id || nodeid::IsAncestor(abs, parent_id)) {
        if (!element)
          return Status::InvalidArgument("parent is not an element");
        parent_is_element |= abs == parent_id;
        header.root_path.push_back({ev.entry.local, ev.entry.ns_uri});
      } else if (element) {
        walker.SkipChildren();
      }
    }
  }
  if (!parent_is_element)
    return Status::NotFound("parent element not found");

  // The new relative ID sits Between() its left and right siblings.
  size_t pos = child_ids.size();  // appended: after the last child
  if (!after_sibling_id.empty()) {
    auto it = std::find(child_ids.begin(), child_ids.end(),
                        after_sibling_id.ToString());
    if (it == child_ids.end())
      return Status::NotFound("after-sibling is not a child of the parent");
    pos = it - child_ids.begin() + 1;
  }
  auto rel = [&](size_t i) {
    return i < child_ids.size() ? child_ids[i].substr(parent_id.size())
                                : std::string();
  };
  std::string new_rel;
  XDB_RETURN_NOT_OK(nodeid::Between(pos > 0 ? rel(pos - 1) : std::string(),
                                    rel(pos), &new_rel));

  // The subtree's record, with the parent as its context node.
  uint64_t node_count = 0;
  XDB_ASSIGN_OR_RETURN(std::string entry,
                       BuildSubtreeEntry(tokens, new_rel, &node_count));
  header.context_node_id = parent_id;
  header.subtree_count = 1;
  std::string new_record;
  AppendRecordHeader(header, &new_record);
  new_record += entry;
  XDB_ASSIGN_OR_RETURN(Rid new_record_rid, records_->Insert(new_record));
  XDB_RETURN_NOT_OK(
      node_index_->AddRecord(doc_id, new_record, new_record_rid));

  // Splice a proxy into the parent's child list.
  XDB_ASSIGN_OR_RETURN(std::string new_parent_record,
                       InsertProxyEntry(parent_record, parent_id, new_rel));
  XDB_RETURN_NOT_OK(
      node_index_->RemoveRecord(doc_id, parent_record, parent_rid));
  XDB_RETURN_NOT_OK(records_->Update(parent_rid, new_parent_record));
  XDB_RETURN_NOT_OK(
      node_index_->AddRecord(doc_id, new_parent_record, parent_rid));
  if (new_id != nullptr) *new_id = parent_id.ToString() + new_rel;
  return Status::OK();
}

Status Collection::DeleteSubtree(Transaction* txn, uint64_t doc_id,
                                 Slice node_id) {
  if (meta_.mvcc_enabled)
    return Status::NotSupported(
        "subtree operations on MVCC collections are future work");
  if (node_id.empty())
    return Status::InvalidArgument("cannot delete the document node");
  DocWrite op{.kind = WalRecordType::kDeleteSubtree,
              .doc_id = doc_id,
              .node = node_id};
  return Write(txn, &op);
}

Status Collection::PruneSubtree(uint64_t doc_id, Slice node_id) {
  XDB_ASSIGN_OR_RETURN(Slice parent_id, nodeid::Parent(node_id));
  if (parent_id.empty())
    return Status::InvalidArgument("cannot delete the root element");

  // The record holding the parent's child list holds either the subtree
  // inline or a proxy for it.
  XDB_ASSIGN_OR_RETURN(Rid parent_rid,
                       node_index_->Lookup(doc_id, parent_id));
  std::string parent_record;
  XDB_RETURN_NOT_OK(records_->Get(parent_rid, &parent_record));

  // Records fully inside the subtree (reachable through proxies).
  std::vector<Rid> doomed;
  XDB_RETURN_NOT_OK(
      CollectSubtreeRecords(doc_id, node_id, parent_record, &doomed));

  bool now_empty = false;
  XDB_ASSIGN_OR_RETURN(std::string new_parent_record,
                       RemoveEntry(parent_record, node_id, &now_empty));
  XDB_RETURN_NOT_OK(
      node_index_->RemoveRecord(doc_id, parent_record, parent_rid));
  XDB_RETURN_NOT_OK(records_->Update(parent_rid, new_parent_record));
  XDB_RETURN_NOT_OK(
      node_index_->AddRecord(doc_id, new_parent_record, parent_rid));

  for (Rid rid : doomed) {
    std::string bytes;
    XDB_RETURN_NOT_OK(records_->Get(rid, &bytes));
    XDB_RETURN_NOT_OK(node_index_->RemoveRecord(doc_id, bytes, rid));
    XDB_RETURN_NOT_OK(records_->Delete(rid));
  }
  return Status::OK();
}

SecondaryIndex* Collection::FindIndex(IndexKind kind,
                                      const std::string& name) {
  for (OwnedIndex& owned : indexes_) {
    if (owned.index->kind() == kind && owned.index->name() == name)
      return owned.index.get();
  }
  return nullptr;
}

Status Collection::CreateIndex(const SecondaryIndexDef& def) {
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyCreateIndex(def));
  return engine_->LogIndexDdl(meta_.name, KindOf(def), NameOf(def), &def);
}

Status Collection::ApplyCreateIndex(const SecondaryIndexDef& def) {
  XDB_RETURN_NOT_OK(GuardWrite());
  const IndexKind kind = KindOf(def);
  const std::string& name = NameOf(def);
  if (const auto* vdef = std::get_if<ValueIndexDef>(&def)) {
    XDB_ASSIGN_OR_RETURN(xpath::Path path, xpath::ParsePath(vdef->path));
    if (!xpath::IsIndexablePath(path))
      return Status::InvalidArgument(
          "value index paths must be linear, predicate-free, and end in an "
          "element or attribute");
  } else if (name.empty()) {
    return Status::InvalidArgument("structural index needs a name");
  }
  WriterMutexLock latch(latch_);
  if (FindIndex(kind, name) != nullptr)
    return Status::InvalidArgument("index '" + name + "' exists");
  XDB_ASSIGN_OR_RETURN(std::unique_ptr<BTree> tree,
                       BTree::Create(buffer_.get()));
  std::unique_ptr<SecondaryIndex> index = MakeIndex(def, tree.get());
  // Stats listener first, so the backfill below is counted too. This bumps
  // the stats epoch, invalidating every cached plan priced without the
  // index.
  stats_.AttachIndex(index.get(), /*created=*/true);
  // Backfill from the stored documents, still under the exclusive latch so
  // a concurrent query never plans against a half-backfilled index. The
  // index is registered only once complete, so a failed backfill leaves no
  // trace once its statistics entry is withdrawn.
  Status st = [&]() -> Status {
    XDB_ASSIGN_OR_RETURN(std::vector<uint64_t> docs, ListDocIdsUnlocked());
    for (uint64_t doc_id : docs) {
      IndexedDocument doc = StoredDocument(doc_id);
      XDB_RETURN_NOT_OK(index->AddDocument(&doc));
    }
    return Status::OK();
  }();
  if (!st.ok()) {
    stats_.NoteIndexDropped(kind, name);
    (void)tree->Destroy();  // best effort: the caller gets the backfill error
    return st;
  }
  if (kind == IndexKind::kValue) {
    meta_.value_indexes.push_back({std::get<ValueIndexDef>(def), tree->root()});
  } else {
    meta_.structural_indexes.push_back(
        {std::get<StructuralIndexDef>(def), tree->root()});
  }
  indexes_.push_back(OwnedIndex{std::move(tree), std::move(index)});
  index_version_.fetch_add(1, std::memory_order_acq_rel);
  plan_cache_.Invalidate("index created");
  // No WAL append here: CreateIndex does it after the latch is released —
  // replay holds the WAL lock while taking collection latches, so appending
  // under the latch would deadlock.
  return Status::OK();
}

Status Collection::DropIndex(IndexKind kind, const std::string& name) {
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyDropIndex(kind, name));
  return engine_->LogIndexDdl(meta_.name, kind, name, nullptr);
}

Status Collection::ApplyDropIndex(IndexKind kind, const std::string& name) {
  XDB_RETURN_NOT_OK(GuardWrite());
  WriterMutexLock latch(latch_);
  SecondaryIndex* doomed = FindIndex(kind, name);
  if (doomed == nullptr) return Status::NotFound("no index '" + name + "'");
  // Version bump + cache clear BEFORE the index is destroyed: any plan
  // compiled against the old index set fails the structure-version gate
  // under this same latch, so its dangling pointer is never dereferenced.
  index_version_.fetch_add(1, std::memory_order_acq_rel);
  plan_cache_.Invalidate("index dropped");
  stats_.NoteIndexDropped(kind, name);
  auto owned = std::find_if(indexes_.begin(), indexes_.end(),
                            [&](const OwnedIndex& o) {
                              return o.index.get() == doomed;
                            });
  // The durable catalog may still name the tree until the next checkpoint
  // (a crash before it replays from that catalog), so its pages are freed
  // then; an in-memory engine has no durable catalog.
  retired_trees_.push_back(std::move(owned->tree));
  indexes_.erase(owned);
  if (engine_->options_.in_memory) FreeRetiredTrees(retired_trees_.size());
  auto named = [&](const auto& meta) { return meta.def.name == name; };
  if (kind == IndexKind::kValue) {
    std::erase_if(meta_.value_indexes, named);
  } else {
    std::erase_if(meta_.structural_indexes, named);
  }
  return Status::OK();
}

void Collection::FreeRetiredTrees(size_t count) {
  auto end = retired_trees_.begin() +
             static_cast<ptrdiff_t>(std::min(count, retired_trees_.size()));
  // A tree that cannot be walked (a damaged page) frees nothing: its pages
  // stay allocated rather than risk freeing live ones.
  for (auto it = retired_trees_.begin(); it != end; ++it)
    (void)(*it)->Destroy();
  retired_trees_.erase(retired_trees_.begin(), end);
}

Status Collection::OpenStorage(bool create) {
  buffer_ = std::make_unique<BufferManager>(space_.get(), buffer_pages_,
                                            buffer_shards_);
  buffer_->set_event_log(engine_->events());
  buffer_->set_wait_sink(engine_->wait_sink());
  Engine* eng = engine_;
  buffer_->set_lsn_source(
      [eng] { return eng->wal_ != nullptr ? eng->wal_->size() : 0; });
  records_ = std::make_unique<RecordManager>(buffer_.get());
  if (!create) XDB_RETURN_NOT_OK(records_->Recover());

  // Every index is one more B+tree in the table space: opened at its
  // catalog root, or created (and its root recorded) when the space is new
  // or the root unset.
  auto open_tree = [&](PageId* root, std::unique_ptr<BTree>* tree) -> Status {
    if (create || *root == kInvalidPageId) {
      XDB_ASSIGN_OR_RETURN(*tree, BTree::Create(buffer_.get()));
    } else {
      XDB_ASSIGN_OR_RETURN(*tree, BTree::Open(buffer_.get(), *root));
    }
    *root = (*tree)->root();
    return Status::OK();
  };
  XDB_RETURN_NOT_OK(open_tree(&meta_.docid_index_root, &docid_tree_));
  XDB_RETURN_NOT_OK(open_tree(&meta_.nodeid_index_root, &nodeid_tree_));
  node_index_ = std::make_unique<NodeIdIndex>(nodeid_tree_.get());
  if (meta_.mvcc_enabled) {
    XDB_RETURN_NOT_OK(open_tree(&meta_.versioned_index_root, &versioned_tree_));
    versions_ = std::make_unique<VersionManager>(versioned_tree_.get());
    versions_->InitCounters(meta_.last_version);
  }
  auto open_index = [&](const SecondaryIndexDef& def, PageId* root) -> Status {
    std::unique_ptr<BTree> tree;
    XDB_RETURN_NOT_OK(open_tree(root, &tree));
    std::unique_ptr<SecondaryIndex> index = MakeIndex(def, tree.get());
    // Not `created`: the persisted stats epoch already accounts for these
    // indexes, so wiring them must not bump it.
    stats_.AttachIndex(index.get(), /*created=*/false);
    indexes_.push_back(OwnedIndex{std::move(tree), std::move(index)});
    return Status::OK();
  };
  indexes_.clear();
  for (ValueIndexMeta& vi : meta_.value_indexes)
    XDB_RETURN_NOT_OK(open_index(vi.def, &vi.root));
  for (StructuralIndexMeta& si : meta_.structural_indexes)
    XDB_RETURN_NOT_OK(open_index(si.def, &si.root));
  return Status::OK();
}

Result<std::vector<uint64_t>> Collection::ListDocIds() {
  XDB_RETURN_NOT_OK(GuardRepair());
  ReaderMutexLock latch(latch_);
  return ListDocIdsUnlocked();
}

Result<std::vector<uint64_t>> Collection::ListDocIdsUnlocked() {
  std::vector<uint64_t> out;
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, docid_tree_->SeekToFirst());
  while (it.Valid()) {
    if (it.key().size() == 8) out.push_back(DecodeBig64(it.key().data()));
    XDB_RETURN_NOT_OK(it.Next());
  }
  return out;
}

Result<uint64_t> Collection::DocCount() {
  XDB_ASSIGN_OR_RETURN(std::vector<uint64_t> ids, ListDocIds());
  return static_cast<uint64_t>(ids.size());
}

Status Collection::VacuumVersions(uint64_t doc_id,
                                  uint64_t oldest_live_snapshot) {
  XDB_RETURN_NOT_OK(GuardRepair());
  if (!meta_.mvcc_enabled) return Status::OK();
  WriterMutexLock latch(latch_);
  auto keep = versions_->EffectiveVersion(doc_id, oldest_live_snapshot);
  if (keep.status().IsNotFound()) return Status::OK();  // nothing visible
  XDB_RETURN_NOT_OK(keep.status());
  std::vector<Rid> freed;
  XDB_RETURN_NOT_OK(
      versions_->PurgeVersionsBefore(doc_id, keep.value(), &freed));
  // Free records no surviving version references.
  std::set<uint64_t> live;
  // Collect every rid still referenced by any remaining version.
  {
    BTree* tree = versions_->tree();
    std::string start;
    PutBig64(&start, doc_id);
    XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree->Seek(start));
    while (it.Valid()) {
      if (it.key().size() < 8 || DecodeBig64(it.key().data()) != doc_id) break;
      live.insert(DecodeFixed64(it.value().data()));
      XDB_RETURN_NOT_OK(it.Next());
    }
  }
  for (Rid rid : freed) {
    if (live.count(rid.Pack()) != 0) continue;
    // The unversioned index may still reference it (newest version).
    Status st = records_->Delete(rid);
    if (!st.ok() && !st.IsNotFound()) return st;
  }
  return Status::OK();
}

Result<std::string> Collection::SerializeSubtree(Transaction* txn,
                                                 uint64_t doc_id,
                                                 Slice node_id) {
  XDB_RETURN_NOT_OK(GuardRepair());
  AutoTxn at(engine_, txn, IsolationMode::kLocking);
  std::string out;
  Status st = [&]() -> Status {
    XDB_RETURN_NOT_OK(ReadLockDoc(at.get(), doc_id));
    ReaderMutexLock latch(latch_);
    SnapshotLocator snap(versions_.get(), 0);
    NodeLocator* locator = ReadLocator(at.get(), &snap);
    if (locator != &snap) XDB_RETURN_NOT_OK(RequireDoc(doc_id));
    StoredDocSource source(records_.get(), locator, doc_id,
                           node_id.ToString());
    TokenWriter tokens;
    XDB_RETURN_NOT_OK(EventsToTokens(&source, &tokens));
    return SerializeTokens(tokens.data(), *engine_->dict(), {}, &out);
  }();
  XDB_RETURN_NOT_OK(at.Finish(st));
  return out;
}

Result<QueryResult> Collection::Query(Transaction* txn, Slice xpath,
                                      const QueryOptions& options) {
  XDB_RETURN_NOT_OK(GuardRepair());
  if (options.min_csn > 0)
    XDB_RETURN_NOT_OK(
        engine_->WaitForFreshness(options.min_csn, options.freshness_timeout_us));
  const bool cacheable = plan_cache_.enabled();
  const bool profiled = options.explain || options.trace;
  const std::string text = xpath.ToString();
  // Bounded replan loop: a compiled plan can go stale when an index drop or
  // storage rebuild races execution. Staleness is reported via *plan_stale —
  // NOT inferred from the status code, because kBusy is also how the buffer
  // pool reports pinned frames, and those must not trigger a replan.
  Status last = Status::OK();
  for (int attempt = 0; attempt < 3; attempt++) {
    std::shared_ptr<const query::CompiledPlan> cp;
    PlanTiming timing{cacheable ? "miss" : "off"};
    if (cacheable) {
      cp = plan_cache_.Lookup(text, options.force, options.want_values,
                              stats_.epoch());
      if (cp != nullptr) timing.cache_state = "hit";
    }
    if (cp == nullptr) {
      const uint64_t plan_start = obs::WallMicros();
      // Thread CPU is read only for profiled queries: the always-on path
      // pays nothing for EXPLAIN's plan-phase CPU column.
      const uint64_t plan_cpu_start = profiled ? obs::ThreadCpuMicros() : 0;
      XDB_ASSIGN_OR_RETURN(xpath::Path path, xpath::ParsePath(text));
      XDB_ASSIGN_OR_RETURN(cp, CompileForExecution(std::move(path), options));
      timing.wall_us = obs::WallMicros() - plan_start;
      if (profiled) timing.cpu_us = obs::ThreadCpuMicros() - plan_cpu_start;
      // Keyed by the epoch the plan was priced at: if the stats moved while
      // we compiled, the entry simply never matches a future lookup.
      if (cacheable)
        plan_cache_.Insert(text, options.force, options.want_values,
                           cp->stats_epoch, cp);
    }
    bool plan_stale = false;
    Result<QueryResult> res =
        ExecuteCompiled(txn, *cp, options, timing, &plan_stale);
    if (res.ok() || !plan_stale) return res;
    last = res.status();
    // The plan probes an index that no longer exists; everything else
    // compiled at the old structure version is equally dead.
    if (cacheable) plan_cache_.Invalidate("stale plan replanned");
  }
  return last;
}

Result<std::shared_ptr<const query::CompiledPlan>>
Collection::CompileForExecution(xpath::Path&& path,
                                const QueryOptions& options) {
  auto cp = std::make_shared<query::CompiledPlan>();
  XDB_ASSIGN_OR_RETURN(uint64_t docs, DocCount());
  query::CollectionStatsSnapshot snap;
  {
    // Planning dereferences the ValueIndex objects (def() for matching,
    // EncodeKey for probe bounds, def().name for the EXPLAIN probe lines),
    // so the shared latch is held across ChoosePlan and the probe-line
    // rendering — not just the pointer copy. A concurrent DropValueIndex or
    // RebuildStorage takes the exclusive latch and destroys the ValueIndex,
    // so releasing earlier would leave planning on freed memory; the
    // index_version_ check in ExecuteCompiled only protects the later probe
    // phase. Planning is pure computation on the index definitions (no page
    // I/O), so the hold stays brief.
    ReaderMutexLock latch(latch_);
    query::PlannerContext ctx;
    for (OwnedIndex& owned : indexes_) {
      if (owned.index->kind() == IndexKind::kValue) {
        ctx.indexes.push_back(static_cast<ValueIndex*>(owned.index.get()));
      } else {
        ctx.structural_indexes.push_back(
            static_cast<StructuralIndex*>(owned.index.get()));
      }
    }
    cp->index_version = index_version_.load(std::memory_order_acquire);
    ctx.doc_count = docs;
    // Cheap cardinality statistic (no index walk): stored records per doc.
    uint64_t live = records_->stats().live_records;
    ctx.avg_records_per_doc =
        docs == 0 ? 1.0
                  : static_cast<double>(std::max<uint64_t>(live, docs)) /
                        static_cast<double>(docs);
    // Collected statistics drive the cost model; when they are invalid
    // (degraded at open), ChoosePlan falls back to the Section 4.3 heuristic
    // rules. stats_'s mutex is a leaf acquired after latch_ (see the member
    // comment), so snapshotting here is safe.
    snap = stats_.Snapshot();
    ctx.stats = &snap;
    XDB_ASSIGN_OR_RETURN(cp->plan,
                         query::ChoosePlan(path, ctx, options.force));
    cp->avg_records_per_doc = ctx.avg_records_per_doc;
    for (const query::PlannedProbe& p : cp->plan.probes)
      cp->probe_lines.push_back(
          p.pred.full_path.ToString() + " " + xpath::CompOpName(p.pred.op) +
          " ... index '" + p.index->def().name + "' (" +
          (p.match == xpath::IndexMatch::kExact ? "exact" : "filtering") +
          ")");
    if (cp->plan.structural_index != nullptr) {
      cp->probe_lines.push_back(
          "structural element '" + cp->plan.structural_name +
          "' ... index '" + cp->plan.structural_index->def().name +
          "' (interval" +
          (cp->plan.structural_anchor ? ", anchor join)" : ")"));
      // Lookup, not Intern: planning a query must never mutate the
      // dictionary. An absent name means an empty scan at execution.
      cp->structural_name_id =
          engine_->dict()->Lookup(Slice(cp->plan.structural_name));
    }
  }
  cp->stats_epoch = snap.epoch;
  cp->stats_valid = cp->plan.cost_based;
  cp->doc_count = docs;
  cp->nodes_per_doc = snap.valid ? snap.avg_nodes_per_doc() : 0.0;

  // Compile the full query once for scans and per-document evaluation.
  XDB_ASSIGN_OR_RETURN(
      cp->tree,
      xpath::QueryTree::Compile(path, *engine_->dict(), options.want_values));

  const bool node_level =
      cp->plan.method == query::AccessMethod::kNodeIdList ||
      cp->plan.method == query::AccessMethod::kNodeIdAndOr ||
      cp->plan.method == query::AccessMethod::kStructuralScan;
  if (node_level) {
    const size_t anchor_step = cp->plan.anchor_step;
    // Residual relative path evaluated on each anchor's subtree:
    //   self-context [anchor predicates] / remaining steps...
    xpath::Path residual;
    residual.absolute = false;
    {
      xpath::Step self;
      self.axis = xpath::Axis::kSelf;
      self.test = xpath::NodeTest::kAnyKind;
      // Anchor predicates are re-evaluated; index exactness already pruned
      // most of the work, and this also covers predicates no index served.
      for (const auto& pred : path.steps[anchor_step].predicates)
        self.predicates.push_back(xpath::CloneExpr(*pred));
      residual.steps.push_back(std::move(self));
    }
    for (size_t i = anchor_step + 1; i < path.steps.size(); i++)
      residual.steps.push_back(xpath::CloneStep(path.steps[i]));

    // Anchor names/structure above the anchor step are verified against the
    // main-path prefix via the record header's root path when the index was
    // only a filter; exact plans skip this.
    xpath::Path prefix_pattern;
    prefix_pattern.absolute = true;
    if (!path.absolute) {
      // Relative queries evaluate with the root element as their implicit
      // context; model that context as a wildcard first step so the
      // prefix check accepts anchors the evaluators actually reach
      // (without it a relative "c" compiles to /c and rejects every
      // non-root anchor).
      xpath::Step ctx;
      ctx.axis = xpath::Axis::kChild;
      ctx.test = xpath::NodeTest::kAnyName;
      prefix_pattern.steps.push_back(std::move(ctx));
    }
    for (size_t i = 0; i <= anchor_step; i++)
      prefix_pattern.steps.push_back(xpath::CloneStep(path.steps[i]));
    for (auto& s : prefix_pattern.steps) s.predicates.clear();

    XDB_ASSIGN_OR_RETURN(cp->residual_tree,
                         xpath::QueryTree::Compile(residual, *engine_->dict(),
                                                   options.want_values));
    cp->prefix_pattern = std::move(prefix_pattern);
  }
  cp->path = std::move(path);
  return std::shared_ptr<const query::CompiledPlan>(std::move(cp));
}

namespace {

/// The evaluate stage's one fan-out. Evaluates items [0, n) with
/// `eval_one(i, out)`: serially into `result` when the list is too small to
/// split (query::PartitionForParallelism), otherwise as one pool task per
/// contiguous chunk, each into a private QueryResult. Chunks merge in chunk
/// order, which reproduces the serial append order exactly, and the
/// lowest-index chunk's error wins, like a serial loop stopping at its first
/// failure.
template <typename EvalOne>
Status FanOut(Engine* engine, const QueryOptions& options, size_t n,
              QueryResult* result, const EvalOne& eval_one) {
  // Threads for this query, the caller included: options.parallelism or the
  // engine default, clamped to the pool; 1 when the engine has no pool.
  util::ThreadPool* pool = engine->query_pool();
  const int wanted = options.parallelism > 0
                         ? options.parallelism
                         : engine->options().num_query_threads;
  const size_t parallelism =
      pool == nullptr ? 1
                      : static_cast<size_t>(std::clamp(
                            wanted, 1, static_cast<int>(pool->size()) + 1));
  const std::vector<query::WorkRange> ranges =
      query::PartitionForParallelism(n, parallelism);
  // Unconditional: two plain stores, and the always-on
  // query.parallel_executions counter reads chunks afterwards.
  result->profile.parallelism =
      ranges.empty() ? 1 : static_cast<int>(parallelism);
  result->profile.chunks = ranges.empty() ? 1 : ranges.size();
  if (ranges.empty()) {
    for (size_t i = 0; i < n; i++) XDB_RETURN_NOT_OK(eval_one(i, result));
    return Status::OK();
  }
  std::vector<QueryResult> chunks(ranges.size());
  std::vector<Status> chunk_status(ranges.size());
  // Pool threads have no wait scope of their own; re-install this query's
  // so per-chunk latch/buffer waits attribute to it (WaitStats is atomic,
  // safe for concurrent Add from every chunk).
  obs::WaitStats* query_waits = obs::QueryWaitScope::current();
  pool->ParallelFor(ranges.size(), parallelism, [&](size_t c) {
    obs::QueryWaitScope chunk_scope(query_waits);
    for (size_t i = ranges[c].begin; i < ranges[c].end && chunk_status[c].ok();
         i++)
      chunk_status[c] = eval_one(i, &chunks[c]);
  });
  for (const Status& st : chunk_status) XDB_RETURN_NOT_OK(st);
  for (QueryResult& c : chunks) {
    result->stats.Merge(c.stats);
    for (ResultNode& r : c.nodes) result->nodes.push_back(std::move(r));
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> Collection::ExecuteCompiled(
    Transaction* txn, const query::CompiledPlan& cp,
    const QueryOptions& options, const PlanTiming& timing, bool* plan_stale) {
  *plan_stale = false;
  XDB_RETURN_NOT_OK(GuardRepair());
  AutoTxn at(engine_, txn, IsolationMode::kLocking);
  // Always-on wait attribution: every WaitSpan crossed while this scope is
  // installed (lock-manager waits, buffer-miss I/O, latch acquisitions,
  // index probes, WAL commits) adds to `waits`, on this thread and — via
  // the per-chunk re-install in FanOut — on pool threads working for this
  // query. Cost when nothing blocks: a TLS store here and two clock reads
  // per span actually crossed.
  obs::WaitStats waits;
  obs::QueryWaitScope wait_scope(&waits);
  QueryResult result;
  // Per-query profile, populated only on request (a default QueryProfile is
  // cheap). The always-on cost of a query is just the engine query counter
  // and latency histogram in FinishQuery.
  obs::QueryProfile& prof = result.profile;
  if (options.explain || options.trace)
    BeginProfile(cp, timing, options.trace, &prof);
  uint64_t pages_before = 0, cpu_start = 0;
  if (prof.enabled) {
    // Attributed as a before/after delta of the pool counters; approximate
    // under concurrent load (documented in query_trace.h).
    BufferManagerStats bs = buffer_->stats();
    pages_before = bs.hits + bs.misses;
    cpu_start = obs::ThreadCpuMicros();
  }
  const uint64_t wall_start = obs::WallMicros();
  Status st = [&]() -> Status {
    const query::QueryPlan& plan = cp.plan;
    result.stats.method = plan.method;
    result.stats.explain = plan.explain;
    result.stats.rechecked = plan.need_recheck;
    // Snapshot vs locking read machinery; snapshot reads take no doc locks.
    SnapshotLocator snap(versions_.get(), 0);
    NodeLocator* locator = ReadLocator(at.get(), &snap);
    // Candidate stage: one source per access-method family.
    Candidates cands;
    switch (plan.method) {
      case query::AccessMethod::kFullScan:
        XDB_RETURN_NOT_OK(ScanCandidates(&result, &cands));
        break;
      case query::AccessMethod::kStructuralScan:
        XDB_RETURN_NOT_OK(
            StructuralCandidates(cp, &result, &cands, plan_stale));
        break;
      default:
        XDB_RETURN_NOT_OK(ProbeCandidates(cp, &result, &cands, plan_stale));
        break;
    }
    // Evaluate stage.
    return EvaluateCandidates(locator == &snap ? nullptr : at.get(), cp,
                              options, locator, cands, &result);
  }();
  FinishQuery(cp, timing, obs::WallMicros() - wall_start,
              prof.enabled ? obs::ThreadCpuMicros() - cpu_start : 0,
              pages_before, waits, &result);
  XDB_RETURN_NOT_OK(at.Finish(st));
  return result;
}

Status Collection::ScanCandidates(QueryResult* result, Candidates* out) {
  XDB_ASSIGN_OR_RETURN(out->docs, ListDocIds());
  result->stats.candidate_docs = out->docs.size();
  return Status::OK();
}

Status Collection::ProbeCandidates(const query::CompiledPlan& cp,
                                   QueryResult* result, Candidates* out,
                                   bool* plan_stale) {
  const query::QueryPlan& plan = cp.plan;
  std::vector<std::vector<Posting>> per_probe;
  std::vector<Posting> structural;
  XDB_RETURN_NOT_OK(
      ProbeIndexes(cp, result, &per_probe, &structural, plan_stale));
  obs::QueryProfile& prof = result->profile;
  obs::PhaseTimer timer(&prof, "merge");
  const char* combine = plan.disjunctive ? "union" : "intersection";
  out->node_level = plan.method == query::AccessMethod::kNodeIdList ||
                    plan.method == query::AccessMethod::kNodeIdAndOr;
  if (!out->node_level) {
    // DocID list / ANDing / ORing; each document is evaluated whole.
    out->docs = query::MergeCandidateDocIds(per_probe, plan.disjunctive);
    result->stats.candidate_docs = out->docs.size();
    if (prof.trace)
      prof.trace_lines.push_back(std::string(combine) + " of doc lists -> " +
                                 std::to_string(out->docs.size()) +
                                 " candidate docs");
    return Status::OK();
  }
  // NodeID level: anchor each posting at the predicate step.
  std::vector<std::vector<Posting>> anchored(per_probe.size());
  for (size_t i = 0; i < per_probe.size(); i++) {
    if (plan.structural_anchor && plan.probes[i].pred.strip_levels < 0) {
      // Descendant branch: the value node's anchor ancestors come from the
      // interval join instead of level-stripping.
      XDB_RETURN_NOT_OK(
          query::StructuralAnchorJoin(per_probe[i], structural, &anchored[i]));
    } else {
      XDB_RETURN_NOT_OK(query::AnchorPostings(
          per_probe[i], plan.probes[i].pred.strip_levels, &anchored[i]));
    }
  }
  out->anchors = plan.disjunctive
                     ? query::UnionPostings(std::move(anchored))
                     : query::IntersectPostings(std::move(anchored));
  result->stats.candidate_anchors = out->anchors.size();
  if (prof.trace)
    prof.trace_lines.push_back(std::string(combine) +
                               " of anchored postings -> " +
                               std::to_string(out->anchors.size()) +
                               " candidate anchors");
  return Status::OK();
}

Status Collection::StructuralCandidates(const query::CompiledPlan& cp,
                                        QueryResult* result, Candidates* out,
                                        bool* plan_stale) {
  // The scan IS the anchor list: entries arrive ordered by (doc, document
  // position), which is exactly the (doc, node-ID byte) order the evaluate
  // stage expects. The prefix pattern plus residual validate the full path
  // around each instance.
  std::vector<std::vector<Posting>> no_value_probes;
  XDB_RETURN_NOT_OK(ProbeIndexes(cp, result, &no_value_probes, &out->anchors,
                                 plan_stale));
  out->node_level = true;
  result->stats.candidate_anchors = out->anchors.size();
  if (result->profile.trace)
    result->profile.trace_lines.push_back(
        "structural anchors -> " + std::to_string(out->anchors.size()) +
        " candidates");
  return Status::OK();
}

Status Collection::ProbeIndexes(const query::CompiledPlan& cp,
                                QueryResult* result,
                                std::vector<std::vector<Posting>>* per_probe,
                                std::vector<Posting>* structural,
                                bool* plan_stale) {
  const query::QueryPlan& plan = cp.plan;
  obs::QueryProfile& prof = result->profile;
  // No doc locks are held yet, so taking the latch here cannot invert the
  // doc-lock-before-latch order.
  obs::PhaseTimer timer(&prof, "probe");
  obs::WaitSpan latch_span(engine_->wait_sink(), obs::WaitState::kLatch);
  ReaderMutexLock latch(latch_);
  latch_span.Finish();
  // Structure-version gate: the plan's index pointers are only safe to
  // dereference while the index set is the one it was compiled against. A
  // mismatch (index dropped, storage rebuilt) makes the plan stale — the
  // caller replans; it is never served.
  if (index_version_.load(std::memory_order_acquire) != cp.index_version) {
    *plan_stale = true;
    return Status::Busy("plan compiled against a changed index set");
  }
  for (size_t pi = 0; pi < plan.probes.size(); pi++) {
    const query::PlannedProbe& probe = plan.probes[pi];
    std::optional<KeyBound> lo, hi;
    bool not_equal = false;
    XDB_RETURN_NOT_OK(
        query::ProbeBounds(*probe.index, probe.pred, &lo, &hi, &not_equal));
    std::vector<Posting> postings;
    obs::WaitSpan probe_span(engine_->wait_sink(),
                             obs::WaitState::kIndexProbe);
    XDB_RETURN_NOT_OK(probe.index->Scan(lo, hi, &postings));
    probe_span.Finish();
    result->stats.index_postings += postings.size();
    if (prof.trace)
      prof.trace_lines.push_back("probe " + std::to_string(pi) + " index '" +
                                 probe.index->def().name + "' -> " +
                                 std::to_string(postings.size()) +
                                 " postings");
    per_probe->push_back(std::move(postings));
  }
  // A never-interned element name scans nothing.
  if (plan.structural_index == nullptr ||
      cp.structural_name_id == NameDictionary::kInvalidNameId)
    return Status::OK();
  std::vector<StructuralPosting> entries;
  obs::WaitSpan probe_span(engine_->wait_sink(), obs::WaitState::kIndexProbe);
  XDB_RETURN_NOT_OK(
      plan.structural_index->Scan(cp.structural_name_id, &entries));
  probe_span.Finish();
  structural->reserve(entries.size());
  for (StructuralPosting& e : entries)
    structural->push_back(Posting{e.doc_id, std::move(e.node_id), Rid()});
  result->stats.index_postings += structural->size();
  if (prof.trace)
    prof.trace_lines.push_back("structural scan index '" +
                               plan.structural_index->def().name +
                               "' element '" + plan.structural_name +
                               "' -> " + std::to_string(structural->size()) +
                               " entries");
  return Status::OK();
}

Status Collection::EvaluateCandidates(Transaction* lock_txn,
                                      const query::CompiledPlan& cp,
                                      const QueryOptions& options,
                                      NodeLocator* locator,
                                      const Candidates& cands,
                                      QueryResult* result) {
  const bool node_level = cands.node_level;
  const size_t n = node_level ? cands.anchors.size() : cands.docs.size();
  auto doc_of = [&](size_t i) {
    return node_level ? cands.anchors[i].doc_id : cands.docs[i];
  };
  {
    obs::PhaseTimer timer(&result->profile, node_level ? "recheck" : "eval");
    // Doc S-locks first, all on this thread and before any latch: they can
    // block, and the transaction's lock table is not safe for concurrent
    // mutation. Both candidate lists are DocID-ordered, so skipping repeats
    // locks each document once, in DocID order. The locks are held to
    // commit either way.
    if (lock_txn != nullptr)
      for (size_t i = 0; i < n; i++)
        if (i == 0 || doc_of(i) != doc_of(i - 1))
          XDB_RETURN_NOT_OK(ReadLockDoc(lock_txn, doc_of(i)));
    XDB_RETURN_NOT_OK(FanOut(
        engine_, options, n, result, [&](size_t i, QueryResult* out) -> Status {
          obs::WaitSpan latch_span(engine_->wait_sink(),
                                   obs::WaitState::kLatch);
          ReaderMutexLock latch(latch_);
          latch_span.Finish();
          if (node_level) return EvalAnchor(cands.anchors[i], cp, locator, out);
          Status st = RunScan(cp.tree.get(), cands.docs[i], std::string(),
                              locator, out);
          if (st.IsNotFound()) return Status::OK();  // invisible at snapshot
          if (st.ok()) out->stats.docs_evaluated++;
          return st;
        }));
  }
  NormalizeSequence(&result->nodes);
  return Status::OK();
}

Status Collection::EvalAnchor(const Posting& anchor,
                              const query::CompiledPlan& cp,
                              NodeLocator* locator, QueryResult* result) {
  // Verify the anchor's own path against the main-path prefix. A miss (not
  // visible at this snapshot, stale posting, unknown name) skips it.
  {
    auto rid = locator->Lookup(anchor.doc_id, Slice(anchor.node_id));
    if (!rid.ok()) return Status::OK();
    std::string record;
    if (!records_->Get(rid.value(), &record).ok()) return Status::OK();
    RecordWalker walker((Slice(record)));
    XDB_RETURN_NOT_OK(walker.Init());
    const RecordHeader& header = walker.header();
    std::vector<Slice> levels;
    XDB_RETURN_NOT_OK(nodeid::SplitLevels(header.context_node_id, &levels));
    // The anchor's concrete path: header path + in-record names.
    xpath::Path concrete;
    concrete.absolute = true;
    auto push_step = [&](xpath::Axis axis, NameId local) {
      auto name = engine_->dict()->Name(local);
      if (!name.ok()) return false;
      xpath::Step step;
      step.axis = axis;
      step.test = xpath::NodeTest::kName;
      step.name = name.MoveValue();
      concrete.steps.push_back(std::move(step));
      return true;
    };
    for (const RecordHeader::PathStep& level : header.root_path)
      if (!push_step(xpath::Axis::kChild, level.local)) return Status::OK();
    // Walk down to the anchor collecting element and attribute names.
    const Slice target(anchor.node_id);
    bool found = target == header.context_node_id;
    while (!found) {
      RecordWalker::Event ev;
      XDB_RETURN_NOT_OK(walker.Next(&ev));
      if (ev.type == RecordWalker::EventType::kDone) return Status::OK();
      if (ev.type != RecordWalker::EventType::kStart) continue;
      const Slice abs(ev.entry.abs_id);
      found = abs == target;
      if (!found && !nodeid::IsAncestor(abs, target)) {
        if (ev.entry.kind == NodeKind::kElement) walker.SkipChildren();
        continue;
      }
      const bool attribute = ev.entry.kind == NodeKind::kAttribute;
      if ((attribute || ev.entry.kind == NodeKind::kElement) &&
          !push_step(attribute ? xpath::Axis::kAttribute : xpath::Axis::kChild,
                     ev.entry.local))
        return Status::OK();
    }
    if (!xpath::PathContains(cp.prefix_pattern, concrete)) return Status::OK();
  }

  // Evaluate the residual on the anchor subtree.
  Status st = RunScan(cp.residual_tree.get(), anchor.doc_id, anchor.node_id,
                      locator, result);
  return st.IsNotFound() ? Status::OK() : st;
}

Status Collection::RunScan(const xpath::QueryTree* tree, uint64_t doc_id,
                           std::string subtree_root, NodeLocator* locator,
                           QueryResult* result) {
  StoredDocSource source(records_.get(), locator, doc_id,
                         std::move(subtree_root));
  xpath::QuickXScan scan(tree, doc_id);
  NodeSequence hits;
  XDB_RETURN_NOT_OK(scan.Run(&source, &hits));
  QueryStats& stats = result->stats;
  const xpath::QuickXScanStats& ss = scan.stats();
  stats.records_fetched += source.records_fetched();
  stats.scan_events += ss.events;
  stats.scan_instances += ss.instances_created;
  stats.scan_peak_live = std::max(stats.scan_peak_live, ss.peak_live_instances);
  for (ResultNode& r : hits) result->nodes.push_back(std::move(r));
  return Status::OK();
}

void Collection::BeginProfile(const query::CompiledPlan& cp,
                              const PlanTiming& timing, bool trace,
                              obs::QueryProfile* prof) const {
  const query::QueryPlan& plan = cp.plan;
  prof->enabled = true;
  prof->trace = trace;
  prof->collection = meta_.name;
  prof->query = cp.path.ToString();
  prof->access_method = query::AccessMethodName(plan.method);
  prof->reason = plan.reason;
  prof->probes = cp.probe_lines;
  prof->disjunctive = plan.disjunctive;
  prof->need_recheck = plan.need_recheck;
  prof->anchor_step = plan.anchor_step;
  prof->doc_count = cp.doc_count;
  prof->avg_records_per_doc = cp.avg_records_per_doc;
  prof->nodes_per_doc = cp.nodes_per_doc;
  prof->stats_epoch = cp.stats_epoch;
  prof->stats_valid = cp.stats_valid;
  prof->plan_cache = timing.cache_state;
  // Planning time: parse+plan+compile on a miss, 0 on a cache hit (the hit
  // path skips all three).
  prof->AddPhase("plan", timing.wall_us, timing.cpu_us);
}

void Collection::FinishQuery(const query::CompiledPlan& cp,
                             const PlanTiming& timing, uint64_t exec_wall_us,
                             uint64_t exec_cpu_us, uint64_t pages_before,
                             const obs::WaitStats& waits,
                             QueryResult* result) {
  obs::QueryProfile& prof = result->profile;
  const QueryStats& stats = result->stats;
  const uint64_t total_wall_us = timing.wall_us + exec_wall_us;
  // Always-on query accounting: one histogram observe and one or two counter
  // adds per query (the hot-path budget measured in EXPERIMENTS.md).
  const Engine::QueryMetrics& qm = engine_->query_metrics();
  if (qm.executions != nullptr) qm.executions->Add(1);
  if (qm.parallel_executions != nullptr && prof.chunks > 1)
    qm.parallel_executions->Add(1);
  if (qm.latency_us != nullptr) qm.latency_us->Observe(exec_wall_us);
  if (prof.enabled) {
    prof.index_postings = stats.index_postings;
    prof.candidate_docs = stats.candidate_docs;
    prof.candidate_anchors = stats.candidate_anchors;
    prof.docs_evaluated = stats.docs_evaluated;
    prof.records_fetched = stats.records_fetched;
    prof.results = result->nodes.size();
    prof.scan_events = stats.scan_events;
    prof.scan_instances = stats.scan_instances;
    prof.scan_peak_live = stats.scan_peak_live;
    BufferManagerStats bs = buffer_->stats();
    prof.pages_fetched = bs.hits + bs.misses - pages_before;
    // "total" covers plan + execution, so the per-phase lines (plan, probe,
    // merge, eval/recheck) sum to it up to untimed glue between phases. Its
    // CPU is the issuing thread's; pool chunks show in the chunk counters.
    prof.AddPhase("total", total_wall_us, timing.cpu_us + exec_cpu_us);
    for (size_t s = 0; s < obs::kWaitStateCount; s++) {
      const obs::WaitState ws = static_cast<obs::WaitState>(s);
      const uint64_t c = waits.Count(ws);
      if (c == 0) continue;
      prof.waits.push_back(obs::QueryProfile::WaitLine{
          obs::WaitStateName(ws), waits.TotalUs(ws), c});
    }
    prof.wait_total_us = waits.GrandTotalUs();
  }
  // Slow-query capture (always-on; one comparison when under the
  // threshold). Strings are built only for queries actually captured.
  const uint64_t slow_threshold_us = engine_->slow_query_threshold_us();
  if (slow_threshold_us == 0 || total_wall_us < slow_threshold_us) return;
  obs::SlowQueryRecord rec;
  rec.timestamp_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  rec.wall_us = total_wall_us;
  rec.results = result->nodes.size();
  rec.parallelism =
      prof.chunks > 1 ? static_cast<uint64_t>(prof.parallelism) : 1;
  rec.collection = meta_.name;
  rec.query = cp.path.ToString();
  rec.access_method = query::AccessMethodName(cp.plan.method);
  for (size_t s = 0; s < obs::kWaitStateCount; s++) {
    const obs::WaitState ws = static_cast<obs::WaitState>(s);
    rec.wait_us[s] = waits.TotalUs(ws);
    rec.wait_count[s] = waits.Count(ws);
  }
  engine_->slow_queries()->Record(rec);
}

Status Collection::GuardRepair() const {
  if (!needs_repair_) return Status::OK();
  return Status::Corruption("collection '" + meta_.name +
                            "' is quarantined pending repair: " +
                            repair_reason_);
}

Status Collection::GuardWrite() const {
  XDB_RETURN_NOT_OK(GuardRepair());
  return engine_->GuardWritable();
}

Result<std::string> Collection::ReadDocTokensForScrub(uint64_t doc_id) {
  ReaderMutexLock latch(latch_);
  StoredDocSource source(records_.get(), node_index_.get(), doc_id);
  TokenWriter tokens;
  XDB_RETURN_NOT_OK(EventsToTokens(&source, &tokens));
  if (tokens.data().size() == 0)
    return Status::Corruption("document " + std::to_string(doc_id) +
                              " reads back empty");
  return tokens.data().ToString();
}

Status Collection::RebuildStorage() {
  WriterMutexLock latch(latch_);
  // Tear down top-down so nothing flushes into the space after it is reset.
  indexes_.clear();
  retired_trees_.clear();
  node_index_.reset();
  versions_.reset();
  docid_tree_.reset();
  nodeid_tree_.reset();
  versioned_tree_.reset();
  records_.reset();
  buffer_.reset();

  if (space_ != nullptr) {
    XDB_RETURN_NOT_OK(space_->Reset());
  } else {
    // The space header itself was unreadable: recreate the file from scratch
    // (Create truncates).
    TableSpaceOptions ts;
    ts.in_memory = engine_->options_.in_memory;
    ts.page_size = page_size_hint_;
    XDB_ASSIGN_OR_RETURN(space_, TableSpace::Create(space_path_, ts));
    space_->set_event_log(engine_->events());
  }
  XDB_RETURN_NOT_OK(OpenStorage(/*create=*/true));
  // Empty storage, empty (but valid) statistics; the epoch stays monotonic
  // so cached-plan keys from before the rebuild can never match again.
  stats_.ResetEmpty(stats_.epoch());
  index_version_.fetch_add(1, std::memory_order_acq_rel);
  plan_cache_.Invalidate("storage rebuilt");
  return Status::OK();
}

Status Collection::ScrubAndRepair(CollectionScrubReport* report,
                                  std::set<uint64_t>* salvaged_ids,
                                  std::set<uint64_t>* lost_ids) {
  report->collection = meta_.name;
  bool structural = needs_repair_;
  uint64_t corrupt_pages = 0;

  if (space_ != nullptr) {
    // Make the sweep see current state, then read raw below the buffer pool
    // so quarantined pages are inspected too. Flush failures themselves are
    // damage worth repairing, not a reason to abort the scrub.
    if (buffer_ != nullptr) {
      Status fs = buffer_->FlushAll();
      if (!fs.ok()) {
        structural = true;
        report->notes.push_back("flush before scrub: " + fs.ToString());
      }
    }
    const uint32_t psize = space_->page_size();
    std::vector<char> buf(psize);
    for (PageId id = 1; id < space_->page_count(); id++) {
      report->pages_scanned++;
      Status rs = space_->ReadPage(id, buf.data());
      if (!rs.ok()) {
        corrupt_pages++;
        report->checksum_failures++;  // unreadable counts as corrupt
        report->notes.push_back("page " + std::to_string(id) + ": " +
                                rs.ToString());
        continue;
      }
      if (space_->format_version() >= kTableSpaceFormatV2) {
        Status vs = VerifyPageChecksum(buf.data(), psize, id);
        if (!vs.ok()) {
          corrupt_pages++;
          report->checksum_failures++;
          report->notes.push_back(vs.ToString());
          continue;
        }
        if (PageFlags(buf.data()) & kPageFlagFree) continue;
      }
      const char* payload = buf.data() + space_->data_offset();
      if (static_cast<uint8_t>(payload[0]) == kDataPage) {
        Status es =
            RecordManager::VerifyDataPage(payload, space_->usable_page_size());
        if (!es.ok()) {
          corrupt_pages++;
          report->envelope_failures++;
          report->notes.push_back("page " + std::to_string(id) + ": " +
                                  es.ToString());
        }
      }
    }
  }

  bool any_damage = structural || corrupt_pages > 0;
  if (!any_damage && buffer_ != nullptr)
    any_damage = !buffer_->quarantined_pages().empty();
  if (!any_damage) return Status::OK();

  // Salvage every document that still reads back intact, as a serialized
  // token stream (independent of the storage about to be rebuilt).
  std::vector<std::pair<uint64_t, std::string>> salvage;
  if (!structural) {
    auto ids = [&]() {
      ReaderMutexLock latch(latch_);
      return ListDocIdsUnlocked();
    }();
    if (ids.ok()) {
      for (uint64_t doc : ids.value()) {
        auto tok = ReadDocTokensForScrub(doc);
        if (tok.ok()) {
          salvage.emplace_back(doc, tok.MoveValue());
        } else {
          lost_ids->insert(doc);
          report->notes.push_back("doc " + std::to_string(doc) +
                                  " unreadable: " + tok.status().ToString());
        }
      }
    } else {
      // DocID index itself is damaged — nothing enumerable; the WAL replay
      // after the rebuild is the only recovery path.
      report->notes.push_back("docid index unreadable: " +
                              ids.status().ToString());
    }
  } else {
    report->notes.push_back("structural corruption (" + repair_reason_ +
                            "); salvage limited to WAL replay");
  }

  XDB_RETURN_NOT_OK(RebuildStorage());
  report->rebuilt = true;
  needs_repair_ = false;
  repair_reason_.clear();

  for (auto& [doc, tokens] : salvage) {
    Status st = ApplyLogged({.kind = WalRecordType::kInsertDocument,
                             .doc_id = doc,
                             .data = tokens});
    if (st.ok()) {
      salvaged_ids->insert(doc);
      report->docs_salvaged++;
    } else {
      lost_ids->insert(doc);
      report->notes.push_back("doc " + std::to_string(doc) +
                              " lost during re-insert: " + st.ToString());
    }
  }
  return Status::OK();
}

}  // namespace xdb
