// BTree: a disk-resident B+tree over the buffer manager.
//
// This is the paper's reused-and-extended "index manager": the same B+tree
// infrastructure serves relational-style DocID indexes and the new XML
// indexes (NodeID index, XPath value indexes). Keys and values are opaque
// byte strings ordered by memcmp; entries are fully sorted by the composite
// (key, value), which gives the "zero, one or more index entries per record"
// duplicate behaviour that XPath value indexes need (Section 3.3).
#ifndef XDB_BTREE_BTREE_H_
#define XDB_BTREE_BTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"

namespace xdb {

struct BtreeStats {
  uint64_t entries = 0;
  uint64_t leaf_pages = 0;
  uint64_t internal_pages = 0;
  uint32_t height = 0;
};

class BTree {
 public:
  /// Creates an empty tree; the root page id is stable for the tree's
  /// lifetime (splits rewrite the root in place), so owners can persist it.
  static Result<std::unique_ptr<BTree>> Create(BufferManager* bm);

  /// Attaches to an existing tree rooted at `root`.
  static Result<std::unique_ptr<BTree>> Open(BufferManager* bm, PageId root);

  PageId root() const { return root_; }

  /// Inserts the pair; duplicate (key, value) pairs are stored once
  /// (idempotent insert).
  Status Insert(Slice key, Slice value);

  /// Removes one exact (key, value) pair. NotFound if absent.
  Status Delete(Slice key, Slice value);

  /// True if at least one entry with exactly `key` exists.
  Result<bool> Contains(Slice key);

  /// Walks the tree counting pages and entries (O(n); for reporting).
  Result<BtreeStats> ComputeStats();

  /// Returns every page of the tree to the table space's free list; the
  /// tree is unusable afterwards. The walk completes before the first page
  /// is freed, so a tree with a damaged page frees nothing.
  Status Destroy();

  /// Forward iterator over (key, value) pairs in composite order. The
  /// iterator pins one leaf page at a time; the tree must not be modified
  /// while an iterator is live.
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    Status Next();
    /// Views into the pinned page; valid until the next Next()/destruction.
    Slice key() const { return key_; }
    Slice value() const { return value_; }

   private:
    friend class BTree;
    Status LoadSlot();
    Status AdvanceLeaf();

    BTree* tree_ = nullptr;
    PageHandle page_;
    uint16_t slot_ = 0;
    bool valid_ = false;
    Slice key_, value_;
  };

  /// Positions at the first entry with (key, value) >= (target_key,
  /// target_value). An empty target_value therefore lands on the first
  /// duplicate of target_key.
  Result<Iterator> Seek(Slice key, Slice value = Slice());
  Result<Iterator> SeekToFirst();

 private:
  BTree(BufferManager* bm, PageId root) : bm_(bm), root_(root) {}

  struct SplitResult {
    bool split = false;
    std::string sep_key, sep_value;  // first composite of the new right page
    PageId right = kInvalidPageId;
  };

  Status InsertRec(PageId page_id, Slice key, Slice value, SplitResult* out);
  Status SplitRoot(const SplitResult& split);
  /// Visits every page level by level from the root (depth 1); kCorruption
  /// on a page that is not a B+tree page.
  Status ForEachPage(
      const std::function<Status(uint32_t depth, PageId id, const char* page)>&
          visit);

  BufferManager* bm_;
  PageId root_;
};

}  // namespace xdb

#endif  // XDB_BTREE_BTREE_H_
