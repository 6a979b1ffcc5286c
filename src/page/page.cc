#include "page/page.h"

#include <cassert>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logging.h"

namespace aurora {

namespace {
// Header field offsets.
constexpr size_t kOffMagic = 0;
constexpr size_t kOffPageId = 4;
constexpr size_t kOffPageLsn = 12;
constexpr size_t kOffType = 20;
constexpr size_t kOffLevel = 21;
constexpr size_t kOffSchemaVersion = 22;
constexpr size_t kOffNext = 26;
constexpr size_t kOffPrev = 34;
constexpr size_t kOffNSlots = 42;
constexpr size_t kOffHeapEnd = 44;
constexpr size_t kOffDeadSpace = 46;
constexpr size_t kOffCrc = 48;
constexpr size_t kSlotSize = 2;
}  // namespace

Page::Page(size_t page_size) : data_(page_size, '\0') {
  AURORA_CHECK(page_size >= kMinPageSize && page_size <= kMaxPageSize,
               "page size out of range");
}

void Page::Format(PageId id, PageType type, uint8_t level) {
  std::fill(data_.begin(), data_.end(), '\0');
  EncodeFixed32(data_.data() + kOffMagic, kMagic);
  EncodeFixed64(data_.data() + kOffPageId, id);
  EncodeFixed64(data_.data() + kOffPageLsn, kInvalidLsn);
  data_[kOffType] = static_cast<char>(type);
  data_[kOffLevel] = static_cast<char>(level);
  EncodeFixed32(data_.data() + kOffSchemaVersion, 0);
  EncodeFixed64(data_.data() + kOffNext, kInvalidPage);
  EncodeFixed64(data_.data() + kOffPrev, kInvalidPage);
  set_nslots(0);
  set_heap_end(static_cast<uint16_t>(kHeaderSize));
  set_dead_space(0);
}

bool Page::IsFormatted() const {
  return DecodeFixed32(data_.data() + kOffMagic) == kMagic;
}

PageId Page::page_id() const { return DecodeFixed64(data_.data() + kOffPageId); }
Lsn Page::page_lsn() const { return DecodeFixed64(data_.data() + kOffPageLsn); }
void Page::set_page_lsn(Lsn lsn) { EncodeFixed64(data_.data() + kOffPageLsn, lsn); }
PageType Page::page_type() const {
  return static_cast<PageType>(data_[kOffType]);
}
uint8_t Page::level() const { return static_cast<uint8_t>(data_[kOffLevel]); }
uint32_t Page::schema_version() const {
  return DecodeFixed32(data_.data() + kOffSchemaVersion);
}
void Page::set_schema_version(uint32_t v) {
  EncodeFixed32(data_.data() + kOffSchemaVersion, v);
}
PageId Page::next_page() const { return DecodeFixed64(data_.data() + kOffNext); }
void Page::set_next_page(PageId id) { EncodeFixed64(data_.data() + kOffNext, id); }
PageId Page::prev_page() const { return DecodeFixed64(data_.data() + kOffPrev); }
void Page::set_prev_page(PageId id) { EncodeFixed64(data_.data() + kOffPrev, id); }

uint16_t Page::nslots() const { return DecodeFixed16(data_.data() + kOffNSlots); }
void Page::set_nslots(uint16_t n) {
  char buf[2];
  memcpy(buf, &n, 2);
  memcpy(data_.data() + kOffNSlots, buf, 2);
}
uint16_t Page::heap_end() const {
  return DecodeFixed16(data_.data() + kOffHeapEnd);
}
void Page::set_heap_end(uint16_t v) {
  memcpy(data_.data() + kOffHeapEnd, &v, 2);
}
uint16_t Page::dead_space() const {
  return DecodeFixed16(data_.data() + kOffDeadSpace);
}
void Page::set_dead_space(uint16_t v) {
  memcpy(data_.data() + kOffDeadSpace, &v, 2);
}

uint16_t Page::SlotOffset(int slot) const {
  size_t pos = data_.size() - kSlotSize * (slot + 1);
  return DecodeFixed16(data_.data() + pos);
}

void Page::SetSlotOffset(int slot, uint16_t off) {
  size_t pos = data_.size() - kSlotSize * (slot + 1);
  memcpy(data_.data() + pos, &off, 2);
}

void Page::RecordAt(uint16_t off, Slice* key, Slice* value) const {
  DecodeRecord(data_, off, key, value);
}

void Page::DecodeRecord(const std::string& bytes, uint16_t off, Slice* key,
                        Slice* value) {
  Slice in(bytes.data() + off, bytes.size() - off);
  uint32_t klen = 0, vlen = 0;
  bool ok = GetVarint32(&in, &klen);
  AURORA_CHECK(ok && in.size() >= klen, "corrupt record key");
  *key = Slice(in.data(), klen);
  in.remove_prefix(klen);
  ok = GetVarint32(&in, &vlen);
  AURORA_CHECK(ok && in.size() >= vlen, "corrupt record value");
  *value = Slice(in.data(), vlen);
}

size_t Page::RecordSize(const Slice& key, const Slice& value) const {
  return VarintLength(key.size()) + key.size() + VarintLength(value.size()) +
         value.size();
}

int Page::slot_count() const { return nslots(); }

Slice Page::KeyAt(int slot) const {
  assert(slot >= 0 && slot < slot_count());
  Slice key, value;
  RecordAt(SlotOffset(slot), &key, &value);
  return key;
}

Slice Page::ValueAt(int slot) const {
  assert(slot >= 0 && slot < slot_count());
  Slice key, value;
  RecordAt(SlotOffset(slot), &key, &value);
  return value;
}

int Page::LowerBound(const Slice& key) const {
  int lo = 0, hi = slot_count();
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (KeyAt(mid).compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int Page::UpperBoundChild(const Slice& key) const {
  // Last slot with key <= search key.
  int lb = LowerBound(key);
  if (lb < slot_count() && KeyAt(lb) == key) return lb;
  return lb - 1;
}

size_t Page::FreeSpace() const {
  size_t slot_region = kSlotSize * static_cast<size_t>(nslots());
  size_t used_end = data_.size() - slot_region;
  return used_end - heap_end();
}

bool Page::HasRoomFor(size_t key_size, size_t value_size) const {
  size_t need = VarintLength(key_size) + key_size + VarintLength(value_size) +
                value_size + kSlotSize;
  // Dead space is reclaimable via compaction.
  return FreeSpace() + dead_space() >= need;
}

uint16_t Page::AppendToHeap(const Slice& key, const Slice& value) {
  const uint16_t off = heap_end();
  char* p = data_.data() + off;
  p = EncodeVarint32(p, static_cast<uint32_t>(key.size()));
  memcpy(p, key.data(), key.size());
  p = EncodeVarint32(p + key.size(), static_cast<uint32_t>(value.size()));
  memcpy(p, value.data(), value.size());
  p += value.size();
  set_heap_end(static_cast<uint16_t>(p - data_.data()));
  return off;
}

void Page::Compact() {
  // One copy of the page, into a buffer this thread reuses; each live record
  // is re-appended from it in slot order, so the heap runs in key order from
  // kHeaderSize and the bytes past the new heap end are left as they were.
  thread_local std::string scratch;
  scratch.assign(data_);
  const int n = slot_count();
  set_heap_end(static_cast<uint16_t>(kHeaderSize));
  set_dead_space(0);
  for (int i = 0; i < n; ++i) {
    Slice k, v;
    DecodeRecord(scratch, SlotOffset(i), &k, &v);
    SetSlotOffset(i, AppendToHeap(k, v));
  }
}

Status Page::InsertRecord(const Slice& key, const Slice& value) {
  const int n = slot_count();
  int pos = n;
  if (n > 0 && KeyAt(n - 1).compare(key) >= 0) {
    pos = LowerBound(key);
    if (KeyAt(pos) == key) return Status::InvalidArgument("duplicate key");
  }
  size_t need = RecordSize(key, value) + kSlotSize;
  if (FreeSpace() < need) {
    if (FreeSpace() + dead_space() < need) {
      return Status::OutOfRange("page full");
    }
    Compact();
  }
  uint16_t off = AppendToHeap(key, value);
  // Shift slots [pos, n) down by one (slot directory grows toward lower
  // addresses, so "down" means toward the heap).
  for (int i = n; i > pos; --i) {
    SetSlotOffset(i, SlotOffset(i - 1));
  }
  SetSlotOffset(pos, off);
  set_nslots(static_cast<uint16_t>(n + 1));
  return Status::OK();
}

Status Page::DeleteRecord(const Slice& key) {
  int pos = LowerBound(key);
  if (pos >= slot_count() || KeyAt(pos) != key) {
    return Status::NotFound("key not in page");
  }
  Slice k, v;
  RecordAt(SlotOffset(pos), &k, &v);
  set_dead_space(static_cast<uint16_t>(dead_space() + RecordSize(k, v)));
  int n = slot_count();
  for (int i = pos; i < n - 1; ++i) {
    SetSlotOffset(i, SlotOffset(i + 1));
  }
  set_nslots(static_cast<uint16_t>(n - 1));
  return Status::OK();
}

Status Page::DeleteFrom(const Slice& key) {
  const int pos = LowerBound(key);
  if (pos >= slot_count() || KeyAt(pos) != key) {
    return Status::NotFound("key not in page");
  }
  // Deleting from the last slot down shifts no slot: each delete only adds
  // its record to the dead space and drops the slot count by one.
  size_t dead = dead_space();
  for (int i = pos; i < slot_count(); ++i) {
    Slice k, v;
    RecordAt(SlotOffset(i), &k, &v);
    dead += RecordSize(k, v);
  }
  set_dead_space(static_cast<uint16_t>(dead));
  set_nslots(static_cast<uint16_t>(pos));
  return Status::OK();
}

Status Page::UpdateRecord(const Slice& key, const Slice& value) {
  int pos = LowerBound(key);
  if (pos >= slot_count() || KeyAt(pos) != key) {
    return Status::NotFound("key not in page");
  }
  Slice k, old_v;
  RecordAt(SlotOffset(pos), &k, &old_v);
  size_t old_size = RecordSize(k, old_v);
  size_t new_size = RecordSize(key, value);
  // The old record becomes dead space; the new one is appended.
  if (FreeSpace() < new_size) {
    if (FreeSpace() + dead_space() + old_size < new_size) {
      return Status::OutOfRange("page full");
    }
    // Mark old dead first so compaction (which keeps live slots) must not
    // drop it: temporarily delete + reinsert instead.
    Status s = DeleteRecord(key);
    AURORA_CHECK(s.ok(), "delete during update failed");
    s = InsertRecord(key, value);
    AURORA_CHECK(s.ok(), "reinsert during update failed");
    return Status::OK();
  }
  set_dead_space(static_cast<uint16_t>(dead_space() + old_size));
  uint16_t off = AppendToHeap(key, value);
  SetSlotOffset(pos, off);
  return Status::OK();
}

bool Page::GetRecord(const Slice& key, Slice* value) const {
  int pos = LowerBound(key);
  if (pos >= slot_count()) return false;
  Slice k, v;
  RecordAt(SlotOffset(pos), &k, &v);
  if (k != key) return false;
  *value = v;
  return true;
}

void Page::UpdateCrc() {
  EncodeFixed32(data_.data() + kOffCrc, 0);
  uint32_t crc = crc32c::Value(data_.data(), data_.size());
  EncodeFixed32(data_.data() + kOffCrc, crc32c::Mask(crc));
}

bool Page::VerifyCrc(Slice bytes) {
  if (bytes.size() < kHeaderSize) return false;
  uint32_t stored = crc32c::Unmask(DecodeFixed32(bytes.data() + kOffCrc));
  // The CRC covers the page with its CRC field zeroed: extend over the bytes
  // before the field, four zero bytes, then the bytes after it.
  static constexpr char kZeroField[4] = {0, 0, 0, 0};
  uint32_t crc = crc32c::Value(bytes.data(), kOffCrc);
  crc = crc32c::Extend(crc, kZeroField, sizeof(kZeroField));
  const size_t rest = kOffCrc + sizeof(kZeroField);
  crc = crc32c::Extend(crc, bytes.data() + rest, bytes.size() - rest);
  return crc == stored;
}

void Page::CorruptForTesting(size_t offset) {
  data_[offset % data_.size()] ^= 0x5A;
}

Status Page::LoadRaw(const Slice& bytes) {
  if (bytes.size() != data_.size()) {
    return Status::InvalidArgument("page size mismatch");
  }
  data_.assign(bytes.data(), bytes.size());
  return Status::OK();
}

void Page::Clear() { std::fill(data_.begin(), data_.end(), '\0'); }

}  // namespace aurora
