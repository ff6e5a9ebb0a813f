// Catalog: persistent metadata — collections, index roots, registered
// (compiled) schemas, and the database-wide name dictionary. The paper's
// "catalog and directory" infrastructure component, reused with XML
// additions (schema binaries, XPath index definitions).
#ifndef XDB_ENGINE_CATALOG_H_
#define XDB_ENGINE_CATALOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "index/structural_index.h"
#include "index/value_index.h"
#include "storage/page.h"

namespace xdb {

/// A secondary index's definition; the alternative held names its kind.
using SecondaryIndexDef = std::variant<ValueIndexDef, StructuralIndexDef>;

inline IndexKind KindOf(const SecondaryIndexDef& def) {
  return std::holds_alternative<ValueIndexDef>(def) ? IndexKind::kValue
                                                    : IndexKind::kStructural;
}

inline const std::string& NameOf(const SecondaryIndexDef& def) {
  return std::visit([](const auto& d) -> const std::string& { return d.name; },
                    def);
}

struct ValueIndexMeta {
  ValueIndexDef def;
  PageId root = kInvalidPageId;
};

struct StructuralIndexMeta {
  StructuralIndexDef def;
  PageId root = kInvalidPageId;
};

struct CollectionMeta {
  std::string name;
  std::string space_file;  // file name within the engine directory
  PageId docid_index_root = kInvalidPageId;
  PageId nodeid_index_root = kInvalidPageId;
  PageId versioned_index_root = kInvalidPageId;  // MVCC collections only
  std::vector<ValueIndexMeta> value_indexes;
  std::vector<StructuralIndexMeta> structural_indexes;
  uint64_t next_doc_id = 1;
  uint64_t last_version = 0;  // persisted MVCC version counter
  /// Stats epoch captured when stats.xdb was last written (checkpoint). At
  /// open, a stats blob whose epoch disagrees is stale: the collection
  /// degrades to heuristic planning instead of costing on wrong numbers.
  /// The catalog write is the commit point of the stats save — stats.xdb is
  /// written first, so a crash between the two only ever loses stats, never
  /// trusts bad ones.
  uint64_t stats_epoch = 0;
  bool mvcc_enabled = false;
  std::string schema_name;  // validate-on-insert when non-empty
};

struct CatalogData {
  std::map<std::string, CollectionMeta> collections;
  std::map<std::string, std::string> schemas;  // name -> compiled binary
  std::string dictionary;                      // serialized NameDictionary
  /// Replica only: the replication-stream CSN at byte 0 of the replica's
  /// local WAL. The replica's applied position is always this base plus the
  /// intact bytes in its local WAL, which makes crash accounting exact: the
  /// base changes only when the WAL resets (checkpoint), and the checkpoint
  /// saves the catalog on both sides of the reset, so every crash window
  /// yields either the correct position or an undercount (safe: the replica
  /// re-requests bytes it already has and re-applies them idempotently),
  /// never an overcount that would skip real segments. Stored in the catalog
  /// (not a side file) so base and checkpointed image commit atomically via
  /// the catalog's temp+rename. Zero (and ignored) on a primary.
  uint64_t replica_wal_base = 0;

  void Serialize(std::string* out) const;
  static Result<CatalogData> Deserialize(Slice data);
};

/// Saves atomically (write temp + rename).
Status SaveCatalog(const CatalogData& data, const std::string& path);
Result<CatalogData> LoadCatalog(const std::string& path);

}  // namespace xdb

#endif  // XDB_ENGINE_CATALOG_H_
