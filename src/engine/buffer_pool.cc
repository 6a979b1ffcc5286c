#include "engine/buffer_pool.h"

#include "common/logging.h"

namespace aurora {

Page* BufferPool::Lookup(PageId id) {
  Slot slot = Find(id);
  if (slot == SlotIndex::kNone) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  Touch(&slots_[slot]);
  return &slots_[slot].page;
}

void BufferPool::Touch(Entry* e) {
  lru_.splice(lru_.begin(), lru_, e->lru_it);
}

std::pair<Page*, bool> BufferPool::Claim(PageId id) {
  ++stats_.installs;
  Slot slot = Find(id);
  if (slot != SlotIndex::kNone) {
    Touch(&slots_[slot]);
    return {&slots_[slot].page, false};
  }
  if (free_.empty()) {
    slot = static_cast<Slot>(slots_.size());
    slots_.emplace_back(page_size_);
    lru_.push_front(slot);
    slots_[slot].lru_it = lru_.begin();
  } else {
    slot = free_.front();
    lru_.splice(lru_.begin(), free_, free_.begin());
  }
  Entry& e = slots_[slot];
  e.id = id;
  e.pinned = false;
  index_.Insert(Mix64(id), slot);
  return {&e.page, true};
}

Page* BufferPool::Install(PageId id, Slice bytes) {
  auto [page, claimed] = Claim(id);
  if (claimed) {
    Status s = page->LoadRaw(bytes);
    AURORA_CHECK(s.ok(), "installed image is not one page");
  }
  return page;
}

Page* BufferPool::InstallNew(PageId id) {
  auto [page, claimed] = Claim(id);
  if (claimed) page->Clear();
  return page;
}

void BufferPool::Pin(PageId id) {
  Slot slot = Find(id);
  if (slot != SlotIndex::kNone) slots_[slot].pinned = true;
}

void BufferPool::Unpin(PageId id) {
  Slot slot = Find(id);
  if (slot != SlotIndex::kNone) slots_[slot].pinned = false;
}

void BufferPool::Free(Slot slot) {
  Entry& e = slots_[slot];
  index_.Erase(Mix64(e.id), slot);
  free_.splice(free_.begin(), lru_, e.lru_it);
}

void BufferPool::Discard(PageId id) {
  Slot slot = Find(id);
  if (slot != SlotIndex::kNone) Free(slot);
}

void BufferPool::Clear() {
  slots_.clear();
  index_.Clear();
  lru_.clear();
  free_.clear();
}

void BufferPool::EvictExcess() { MaybeEvict(); }

void BufferPool::MaybeEvict() {
  if (size() <= capacity_) return;
  // Scan from coldest; skip pinned pages and pages whose latest change is
  // not yet durable (page LSN > VDL) — those must stay, even over capacity.
  auto it = lru_.end();
  size_t scanned = 0;
  while (size() > capacity_ && it != lru_.begin() && scanned < size()) {
    --it;
    ++scanned;
    Entry& e = slots_[*it];
    if (e.pinned) continue;
    if (e.page.IsFormatted() && e.page.page_lsn() > *vdl_) {
      ++stats_.eviction_blocked;
      continue;
    }
    if (evict_filter_ && !evict_filter_(e.id, e.page)) {
      ++stats_.eviction_blocked;
      continue;
    }
    Slot victim = *it++;
    Free(victim);
    ++stats_.evictions;
  }
}

size_t BufferPool::CountAboveVdl() const {
  size_t n = 0;
  for (Slot slot : lru_) {
    const Page& page = slots_[slot].page;
    if (page.IsFormatted() && page.page_lsn() > *vdl_) ++n;
  }
  return n;
}

}  // namespace aurora
