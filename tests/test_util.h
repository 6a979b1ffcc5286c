#ifndef AURORA_TESTS_TEST_UTIL_H_
#define AURORA_TESTS_TEST_UTIL_H_

#include <map>
#include <memory>
#include <string>

#include "log/mtr.h"
#include "page/page.h"
#include "page/page_provider.h"

namespace aurora::testing {

/// Fully-resident in-memory page space: never returns Busy. Used to test the
/// page/B+-tree/applicator layers in isolation from the buffer pool and the
/// storage service.
class MemoryPageProvider : public PageProvider {
 public:
  explicit MemoryPageProvider(size_t page_size) : page_size_(page_size) {}

  Result<Page*> GetPage(PageId id) override {
    auto it = pages_.find(id);
    if (it == pages_.end()) return Status::NotFound("no such page");
    return it->second.get();
  }

  Result<Page*> AllocatePage(PageType type, uint8_t level,
                             MiniTransaction* mtr) override {
    PageId id;
    Page* raw;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
      raw = pages_.at(id).get();
    } else {
      id = next_id_++;
      auto page = std::make_unique<Page>(page_size_);
      raw = page.get();
      pages_[id] = std::move(page);
    }
    LogRecord rec;
    rec.page_id = id;
    rec.op = RedoOp::kFormatPage;
    rec.payload = LogRecord::MakeFormatPayload(static_cast<uint8_t>(type),
                                               level);
    Status s = mtr->Apply(raw, std::move(rec));
    if (!s.ok()) return s;
    return raw;
  }

  Status FreePage(Page* page, MiniTransaction* mtr) override {
    LogRecord rec;
    rec.page_id = page->page_id();
    rec.op = RedoOp::kFormatPage;
    rec.payload = LogRecord::MakeFormatPayload(
        static_cast<uint8_t>(PageType::kFree), 0);
    Status s = mtr->Apply(page, std::move(rec));
    if (!s.ok()) return s;
    free_.push_back(page->page_id());
    return Status::OK();
  }

  size_t page_size() const override { return page_size_; }

  size_t num_pages() const { return pages_.size(); }
  size_t num_free() const { return free_.size(); }
  const std::map<PageId, std::unique_ptr<Page>>& pages() const {
    return pages_;
  }

 private:
  size_t page_size_;
  PageId next_id_ = 1;
  std::map<PageId, std::unique_ptr<Page>> pages_;
  std::vector<PageId> free_;
};

/// Commits MTRs by assigning LSNs locally (unit tests for the btree layer).
class LocalWalSink {
 public:
  Status CommitMtr(MiniTransaction* mtr) {
    auto& records = mtr->records();
    const auto& pages = mtr->pages();
    for (size_t i = 0; i < records.size(); ++i) {
      records[i].lsn = next_lsn_;
      next_lsn_ += records[i].EncodedSize();
      records[i].prev_pg_lsn = last_lsn_;
      records[i].prev_vol_lsn = last_lsn_;
      last_lsn_ = records[i].lsn;
      pages[i]->set_page_lsn(records[i].lsn);
      all_records_.push_back(records[i]);
    }
    if (!records.empty()) {
      all_records_.back().flags |= kFlagCpl;
      mtr->set_commit_lsn(records.back().lsn);
    }
    return Status::OK();
  }

  const std::vector<LogRecord>& all_records() const { return all_records_; }

 private:
  Lsn next_lsn_ = 1;
  Lsn last_lsn_ = kInvalidLsn;
  std::vector<LogRecord> all_records_;
};

/// Key helper: zero-padded decimal so lexicographic order == numeric order.
inline std::string Key(uint64_t n) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%012llu", static_cast<unsigned long long>(n));
  return buf;
}

}  // namespace aurora::testing

#endif  // AURORA_TESTS_TEST_UTIL_H_
