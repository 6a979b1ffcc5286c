#include "page/page_provider.h"

#include <string>
#include <utility>

#include "common/coding.h"

namespace aurora {

namespace {

constexpr char kNextPageKey[] = "next_page";
// Free-list entries sort below kNextPageKey and the "tbl:" catalog entries.
constexpr char kFreePagePrefix[] = "free:";
constexpr size_t kFreePagePrefixLen = 5;

}  // namespace

Status FormatPage(Page* frame, PageId id, PageType type, uint8_t level,
                  MiniTransaction* mtr) {
  LogRecord fmt;
  fmt.page_id = id;
  fmt.op = RedoOp::kFormatPage;
  fmt.payload =
      LogRecord::MakeFormatPayload(static_cast<uint8_t>(type), level);
  return mtr->Apply(frame, std::move(fmt));
}

Status FormatMetaPage(Page* meta, MiniTransaction* mtr) {
  Status s = FormatPage(meta, 0, PageType::kMeta, 0, mtr);
  if (!s.ok()) return s;
  std::string next;
  PutFixed64(&next, 1);
  return PutMetaRecord(meta, RedoOp::kInsert, kNextPageKey, next, mtr);
}

Status PutMetaRecord(Page* meta, RedoOp op, const Slice& key,
                     const Slice& value, MiniTransaction* mtr) {
  return mtr->Apply(meta, op, LogRecord::MakeKeyValuePayload(key, value));
}

Result<PageId> NextPageId(const Page* meta) {
  Slice v;
  if (!meta->GetRecord(kNextPageKey, &v) || v.size() != 8) {
    return Status::Corruption("allocator record missing");
  }
  return DecodeFixed64(v.data());
}

Status SetNextPageId(Page* meta, PageId next, MiniTransaction* mtr) {
  std::string v;
  PutFixed64(&v, next);
  return PutMetaRecord(meta, RedoOp::kUpdate, kNextPageKey, v, mtr);
}

Result<PageId> TakePageId(Page* meta, MiniTransaction* mtr, bool* reused) {
  // Reuse a freed page when the free-list has one; the page space only
  // grows when the list is empty.
  int slot = meta->LowerBound(kFreePagePrefix);
  if (slot < meta->slot_count()) {
    Slice k = meta->KeyAt(slot);
    if (k.size() == kFreePagePrefixLen + 8 && k.starts_with(kFreePagePrefix)) {
      const PageId id = DecodeFixed64(k.data() + kFreePagePrefixLen);
      Status s =
          mtr->Apply(meta, RedoOp::kDelete, LogRecord::MakeKeyPayload(k));
      if (!s.ok()) return s;
      *reused = true;
      return id;
    }
  }
  Result<PageId> id = NextPageId(meta);
  if (!id.ok()) return id;
  Status s = SetNextPageId(meta, *id + 1, mtr);
  if (!s.ok()) return s;
  *reused = false;
  return id;
}

Status FreeToMetaPage(Page* meta, Page* page, MiniTransaction* mtr) {
  std::string key = kFreePagePrefix;
  PutFixed64(&key, page->page_id());
  // A meta page with no room only costs the reuse of this one id: leak it
  // rather than fail the caller's already-applied structural change.
  if (meta->HasRoomFor(key.size(), 0)) {
    Status s = PutMetaRecord(meta, RedoOp::kInsert, key, Slice(), mtr);
    if (!s.ok()) return s;
  }
  return FormatPage(page, page->page_id(), PageType::kFree, 0, mtr);
}

}  // namespace aurora
