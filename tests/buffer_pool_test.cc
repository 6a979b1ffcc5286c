#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/buffer_pool.h"
#include "page/page.h"

namespace aurora {
namespace {

constexpr size_t kPageSize = 4096;

/// A formatted page carrying `lsn` as its page LSN.
Page PageAt(PageId id, Lsn lsn) {
  Page p(kPageSize);
  p.Format(id, PageType::kBTreeLeaf, 0);
  p.set_page_lsn(lsn);
  return p;
}

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : pool_(3, kPageSize, &vdl_) {}

  /// Installs pages `ids` in order (the last one is the most recent).
  void InstallAll(const std::vector<PageId>& ids) {
    for (PageId id : ids) pool_.Install(id, PageAt(id, 1).raw());
  }

  std::vector<PageId> Resident(PageId max_id) const {
    std::vector<PageId> out;
    for (PageId id = 0; id <= max_id; ++id) {
      if (pool_.Contains(id)) out.push_back(id);
    }
    return out;
  }

  Lsn vdl_ = 10;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, HitsReorderTheLruList) {
  InstallAll({1, 2, 3});
  // 1 was the coldest; the hit makes 2 the coldest.
  ASSERT_NE(pool_.Lookup(1), nullptr);
  pool_.Install(4, PageAt(4, 1).raw());
  pool_.EvictExcess();
  EXPECT_EQ(Resident(4), (std::vector<PageId>{1, 3, 4}));
  // Hits on 3 then 1 leave 4 coldest.
  ASSERT_NE(pool_.Lookup(3), nullptr);
  ASSERT_NE(pool_.Lookup(1), nullptr);
  pool_.Install(5, PageAt(5, 1).raw());
  pool_.EvictExcess();
  EXPECT_EQ(Resident(5), (std::vector<PageId>{1, 3, 5}));
  EXPECT_EQ(pool_.stats().hits, 3u);
  EXPECT_EQ(pool_.stats().evictions, 2u);
  EXPECT_EQ(pool_.Lookup(2), nullptr);
  EXPECT_EQ(pool_.stats().misses, 1u);
}

TEST_F(BufferPoolTest, PinnedPagesAreSkipped) {
  InstallAll({1, 2, 3});
  pool_.Pin(1);
  pool_.Install(4, PageAt(4, 1).raw());
  pool_.EvictExcess();
  EXPECT_EQ(Resident(4), (std::vector<PageId>{1, 3, 4}));
  // Unpinned, it is the coldest again.
  pool_.Unpin(1);
  pool_.Install(5, PageAt(5, 1).raw());
  pool_.EvictExcess();
  EXPECT_EQ(Resident(5), (std::vector<PageId>{3, 4, 5}));
}

TEST_F(BufferPoolTest, PageAboveVdlBlocksEviction) {
  pool_.Install(1, PageAt(1, vdl_ + 5).raw());  // not yet durable
  InstallAll({2, 3, 4});
  EXPECT_EQ(pool_.CountAboveVdl(), 1u);
  pool_.EvictExcess();
  EXPECT_EQ(Resident(4), (std::vector<PageId>{1, 3, 4}));
  EXPECT_EQ(pool_.stats().eviction_blocked, 1u);
  // Once the VDL passes its page LSN, the page may leave.
  vdl_ += 5;
  pool_.Install(5, PageAt(5, 1).raw());
  pool_.EvictExcess();
  EXPECT_EQ(Resident(5), (std::vector<PageId>{3, 4, 5}));
  EXPECT_EQ(pool_.CountAboveVdl(), 0u);
}

TEST_F(BufferPoolTest, EvictFilterVetoes) {
  std::vector<PageId> asked;
  pool_.set_evict_filter([&asked](PageId id, const Page&) {
    asked.push_back(id);
    return id != 1;
  });
  InstallAll({1, 2, 3, 4});
  pool_.EvictExcess();
  EXPECT_EQ(Resident(4), (std::vector<PageId>{1, 3, 4}));
  EXPECT_EQ(asked, (std::vector<PageId>{1, 2}));
  EXPECT_EQ(pool_.stats().eviction_blocked, 1u);
}

TEST_F(BufferPoolTest, SecondInstallKeepsTheResidentCopy) {
  Page* first = pool_.Install(1, PageAt(1, 3).raw());
  Page* again = pool_.Install(1, PageAt(1, 7).raw());
  EXPECT_EQ(first, again);
  EXPECT_EQ(pool_.Lookup(1)->page_lsn(), 3u);
  EXPECT_EQ(pool_.size(), 1u);
  EXPECT_EQ(pool_.stats().installs, 2u);
  // The duplicate install counts as a touch: 1 is now the most recent.
  InstallAll({2, 3});
  pool_.Install(1, PageAt(1, 9).raw());
  pool_.Install(4, PageAt(4, 1).raw());
  pool_.EvictExcess();
  EXPECT_EQ(Resident(4), (std::vector<PageId>{1, 3, 4}));
}

// A slot freed by eviction keeps its buffer, so the next install writes
// over the previous page's bytes: an install must leave exactly the new
// image, and InstallNew an all-zero page.
TEST_F(BufferPoolTest, RecycledSlotsHoldOnlyTheNewImage) {
  InstallAll({1, 2, 3, 4});
  pool_.EvictExcess();  // frees page 1's slot
  Page* fresh = pool_.InstallNew(5);
  EXPECT_FALSE(fresh->IsFormatted());
  EXPECT_EQ(fresh->raw(), std::string(kPageSize, '\0'));
  pool_.EvictExcess();  // frees page 2's slot
  const Page image = PageAt(6, 2);
  Page* installed = pool_.Install(6, image.raw());
  EXPECT_EQ(installed->raw(), image.raw());
  EXPECT_EQ(pool_.Lookup(6), installed);
  EXPECT_EQ(pool_.stats().evictions, 2u);
}

TEST_F(BufferPoolTest, DiscardAndClear) {
  InstallAll({1, 2, 3});
  pool_.Discard(2);
  pool_.Discard(9);  // absent: no-op
  EXPECT_EQ(Resident(3), (std::vector<PageId>{1, 3}));
  EXPECT_EQ(pool_.Lookup(2), nullptr);
  // The discarded page left the LRU list too: a new page fits without
  // evicting anything.
  pool_.Install(4, PageAt(4, 1).raw());
  pool_.EvictExcess();
  EXPECT_EQ(pool_.stats().evictions, 0u);
  pool_.Clear();
  EXPECT_EQ(pool_.size(), 0u);
  EXPECT_EQ(pool_.Lookup(1), nullptr);
  // The pool is usable after a clear.
  InstallAll({5, 6, 7, 8});
  pool_.EvictExcess();
  EXPECT_EQ(Resident(8), (std::vector<PageId>{6, 7, 8}));
}

}  // namespace
}  // namespace aurora
