// Replication walkthrough: a primary ships its WAL to a read-only replica
// through a spool directory, reads are freshness-bounded with `min_csn`,
// and the replica is finally promoted to a writable primary.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/replica
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "engine/engine.h"
#include "repl/replica_applier.h"
#include "repl/ship_transport.h"
#include "repl/wal_shipper.h"

using namespace xdb;

#define CHECK_OK(expr)                                        \
  do {                                                        \
    ::xdb::Status _st = (expr);                               \
    if (!_st.ok()) {                                          \
      std::fprintf(stderr, "FATAL at %s:%d: %s\n", __FILE__,  \
                   __LINE__, _st.ToString().c_str());         \
      std::exit(1);                                           \
    }                                                         \
  } while (0)

template <typename T>
T Unwrap(Result<T> res, const char* what) {
  if (!res.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 res.status().ToString().c_str());
    std::exit(1);
  }
  return res.MoveValue();
}

int main() {
  // Unique per run, so concurrent runs (parallel ctest) never share it.
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("xdb_replica_example." + std::to_string(::getpid())))
          .string();
  const std::string primary_dir = base + "/primary";
  const std::string replica_dir = base + "/replica";
  const std::string spool_dir = base + "/spool";
  std::filesystem::remove_all(base);
  for (const std::string& d : {primary_dir, replica_dir, spool_dir})
    std::filesystem::create_directories(d);

  // Two disk-backed engines: a normal primary and a read-only replica.
  EngineOptions popts;
  popts.dir = primary_dir;
  auto primary = Unwrap(Engine::Open(popts), "open primary");
  EngineOptions ropts;
  ropts.dir = replica_dir;
  ropts.replica = true;
  auto replica = Unwrap(Engine::Open(ropts), "open replica");

  // The shipping channel: a spool directory of checksummed segment files
  // (swap in any ShipTransport — the pipeline does not care).
  auto transport = Unwrap(repl::FileTransport::Open(spool_dir), "open spool");
  repl::WalShipper shipper(primary.get(), transport.get());
  auto applier = Unwrap(
      repl::ReplicaApplier::Attach(replica.get(), transport.get()),
      "attach applier");

  // Writes — including DDL — happen on the primary only.
  Collection* orders = Unwrap(primary->CreateCollection("orders"),
                              "create collection");
  for (int i = 0; i < 3; i++) {
    Unwrap(orders->InsertDocument(
               nullptr, "<order id=\"" + std::to_string(i) +
                            "\"><sku>SKU-" + std::to_string(100 + i) +
                            "</sku></order>"),
           "insert");
  }

  // Ship the durable WAL prefix and apply it. The watermark the applier
  // publishes is a stream CSN: "the replica has applied everything up to
  // this byte of the primary's history".
  CHECK_OK(shipper.ShipAll());
  CHECK_OK(applier->CatchUp());
  std::printf("shipped_csn=%llu applied_csn=%llu lag=%llu\n",
              static_cast<unsigned long long>(shipper.shipped_csn()),
              static_cast<unsigned long long>(replica->applied_csn()),
              static_cast<unsigned long long>(shipper.shipped_csn() -
                                              replica->applied_csn()));

  // The replica serves reads, and refuses local writes.
  Collection* rorders = Unwrap(replica->GetCollection("orders"), "replica get");
  std::printf("replica sees %llu order(s)\n",
              static_cast<unsigned long long>(
                  Unwrap(rorders->DocCount(), "count")));
  Status write = rorders->InsertDocument(nullptr, "<order/>").status();
  std::printf("replica write rejected: %s\n", write.ToString().c_str());

  // Read-your-writes: insert on the primary, then query the replica with a
  // freshness bound. Before the apply the bounded read reports kStale
  // instead of silently serving old data; after it, the read succeeds.
  Unwrap(orders->InsertDocument(nullptr, "<order id=\"99\"><sku>RUSH</sku>"
                                         "</order>"),
         "insert");
  CHECK_OK(shipper.ShipAll());  // spooled, not yet applied
  QueryOptions fresh;
  fresh.min_csn = shipper.shipped_csn();
  fresh.freshness_timeout_us = 1000;
  Status stale = rorders->Query(nullptr, "/order/sku", fresh).status();
  std::printf("bounded read before apply: %s\n", stale.ToString().c_str());
  CHECK_OK(applier->CatchUp());
  auto result = Unwrap(rorders->Query(nullptr, "/order/sku", fresh),
                       "fresh query");
  std::printf("bounded read after apply: %zu skus\n", result.nodes.size());

  // Failover: promote the replica. It scrubs, lifts the read-only gate, and
  // permanently fences segments from the old timeline.
  CHECK_OK(applier->Promote());
  Unwrap(rorders->InsertDocument(nullptr, "<order id=\"100\"><sku>NEW-ERA"
                                          "</sku></order>"),
         "write on promoted node");
  std::printf("promoted replica accepted a write; %llu order(s) now\n",
              static_cast<unsigned long long>(
                  Unwrap(rorders->DocCount(), "count")));

  std::filesystem::remove_all(base);
  return 0;
}
