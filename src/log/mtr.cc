#include "log/mtr.h"

#include <string>
#include <utility>
#include <vector>

#include "log/applicator.h"

namespace aurora {

namespace {

// Before-image buffers of finished MTRs, reused by the next MTR on the same
// thread (each PDES worker keeps its own list). `assign` into a recycled
// buffer reuses its capacity, so the first-touch copy allocates nothing
// once the list is warm. Capped so one huge MTR cannot pin memory forever.
constexpr size_t kMaxFreeImages = 64;
thread_local std::vector<std::string> free_images;

std::string TakeImageBuffer() {
  if (free_images.empty()) return std::string();
  std::string buf = std::move(free_images.back());
  free_images.pop_back();
  return buf;
}

void ReturnImageBuffers(std::vector<std::pair<Page*, std::string>>* images) {
  for (auto& [page, buf] : *images) {
    if (free_images.size() >= kMaxFreeImages) break;
    free_images.push_back(std::move(buf));
  }
  images->clear();
}

}  // namespace

MiniTransaction::~MiniTransaction() { ReturnImageBuffers(&before_images_); }

Status MiniTransaction::Apply(Page* page, LogRecord record) {
  record.txn_id = txn_id_;
  record.lsn = kInvalidLsn;  // assigned by the sink
  bool seen = false;
  for (const auto& [p, img] : before_images_) {
    if (p == page) {
      seen = true;
      break;
    }
  }
  if (!seen) {
    std::string img = TakeImageBuffer();
    img.assign(page->raw());
    before_images_.emplace_back(page, std::move(img));
  }
  Status s = LogApplicator::Apply(record, page);
  if (!s.ok()) return s;
  records_.push_back(std::move(record));
  pages_.push_back(page);
  return Status::OK();
}

Status MiniTransaction::Apply(Page* page, RedoOp op, std::string payload) {
  LogRecord record;
  record.page_id = page->page_id();
  record.op = op;
  record.payload = std::move(payload);
  return Apply(page, std::move(record));
}

void MiniTransaction::Abort() {
  // Restore in reverse touch order (order doesn't actually matter — each
  // page gets back its first-touch image).
  for (auto it = before_images_.rbegin(); it != before_images_.rend(); ++it) {
    Status s = it->first->LoadRaw(it->second);
    (void)s;  // same size by construction
  }
  ReturnImageBuffers(&before_images_);
  records_.clear();
  pages_.clear();
}

}  // namespace aurora
