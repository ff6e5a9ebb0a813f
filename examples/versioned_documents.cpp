// Versioned documents: Section 5's concurrency schemes in action.
//
// An MVCC collection lets snapshot readers run against a stable version
// while writers update subtrees under prefix node-ID locks; a locking
// collection shows the classic reader/writer exclusion. Finishes with a
// checkpoint + reopen cycle against a persistent directory.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "engine/engine.h"

using namespace xdb;

template <typename T>
T Unwrap(Result<T> res, const char* what) {
  if (!res.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 res.status().ToString().c_str());
    std::exit(1);
  }
  return res.MoveValue();
}

void Must(Status st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

int main() {
  // Unique per run, so concurrent runs (parallel ctest) never share it.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("xdb_versioned_example." + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  EngineOptions options;
  options.dir = dir;
  {
    auto engine = Unwrap(Engine::Open(options), "open engine");

    CollectionOptions mvcc_opts;
    mvcc_opts.mvcc = true;
    Collection* wiki =
        Unwrap(engine->CreateCollection("wiki", mvcc_opts), "create");

    uint64_t page = Unwrap(
        wiki->InsertDocument(
            nullptr, "<page><title>MVCC</title><body>draft one</body></page>"),
        "insert");

    // Pin a snapshot, then update the body text under the hood.
    Transaction reader = engine->Begin(IsolationMode::kSnapshot);
    std::string v1 = Unwrap(wiki->GetDocumentText(&reader, page), "read v1");

    auto body_text =
        Unwrap(wiki->Query(nullptr, "/page/body/text()", {}), "find text");
    Must(wiki->UpdateTextNode(nullptr, page, body_text.nodes[0].node_id,
                              "draft two, improved"),
         "update");

    std::string still_v1 =
        Unwrap(wiki->GetDocumentText(&reader, page), "read v1 again");
    Must(engine->Commit(&reader), "commit reader");
    std::string v2 = Unwrap(wiki->GetDocumentText(nullptr, page), "read v2");

    std::printf("pinned snapshot saw:   %s\n", v1.c_str());
    std::printf("after the update, it still saw: %s\n", still_v1.c_str());
    std::printf("a fresh reader sees:   %s\n", v2.c_str());

    // Subdocument concurrency: two transactions edit DISJOINT subtrees of
    // the same document at once — prefix node-ID locks do not conflict.
    uint64_t doc = Unwrap(
        wiki->InsertDocument(
            nullptr, "<doc><intro>i0</intro><outro>o0</outro></doc>"),
        "insert");
    auto intro =
        Unwrap(wiki->Query(nullptr, "/doc/intro/text()", {}), "intro");
    auto outro =
        Unwrap(wiki->Query(nullptr, "/doc/outro/text()", {}), "outro");
    std::string intro_id, outro_id;
    for (auto& n : intro.nodes)
      if (n.doc_id == doc) intro_id = n.node_id;
    for (auto& n : outro.nodes)
      if (n.doc_id == doc) outro_id = n.node_id;

    Transaction t1 = engine->Begin(IsolationMode::kLocking);
    Transaction t2 = engine->Begin(IsolationMode::kLocking);
    Must(wiki->UpdateTextNode(&t1, doc, intro_id, "i1 (txn 1)"), "t1 update");
    Must(wiki->UpdateTextNode(&t2, doc, outro_id, "o1 (txn 2)"), "t2 update");
    Must(engine->Commit(&t1), "commit t1");
    Must(engine->Commit(&t2), "commit t2");
    std::printf("disjoint-subtree writers both committed: %s\n",
                Unwrap(wiki->GetDocumentText(nullptr, doc), "read").c_str());

    // A conflicting writer on the SAME subtree times out instead.
    Transaction t3 = engine->Begin(IsolationMode::kLocking);
    Must(wiki->UpdateTextNode(&t3, doc, intro_id, "i2"), "t3 update");
    Transaction t4 = engine->Begin(IsolationMode::kLocking);
    Status conflict = wiki->UpdateTextNode(&t4, doc, intro_id, "i2 too");
    std::printf("overlapping writer correctly failed: %s\n",
                conflict.ToString().c_str());
    Must(engine->Abort(&t4), "abort t4");
    Must(engine->Commit(&t3), "commit t3");

    Must(engine->Checkpoint(), "checkpoint");
  }

  // Reopen: catalog, dictionary, indexes and data all come back.
  {
    auto engine = Unwrap(Engine::Open(options), "reopen engine");
    Collection* wiki = Unwrap(engine->GetCollection("wiki"), "get collection");
    std::printf("after reopen, %llu documents; page 1 reads: %s\n",
                static_cast<unsigned long long>(
                    Unwrap(wiki->DocCount(), "count")),
                Unwrap(wiki->GetDocumentText(nullptr, 1), "read").c_str());
  }
  std::filesystem::remove_all(dir);
  return 0;
}
