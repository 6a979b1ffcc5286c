#include "page/btree.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"

namespace aurora {

namespace {
constexpr char kRootKey[] = "root";
constexpr size_t kChildEntrySize = 8;

size_t EntryBytes(const Page* p, int slot) {
  Slice k = p->KeyAt(slot);
  Slice v = p->ValueAt(slot);
  return VarintLength(k.size()) + k.size() + VarintLength(v.size()) + v.size();
}

// Byte-balanced split point: the first slot index such that the bytes kept
// on the left are >= half of the page's live bytes. Count-based splitting is
// not enough with variable-size records: it can leave one half nearly full,
// breaking the guarantee that a post-split page has room for the pending
// record.
int SplitPoint(const Page* p) {
  int n = p->slot_count();
  size_t total = 0;
  for (int i = 0; i < n; ++i) total += EntryBytes(p, i);
  size_t acc = 0;
  for (int i = 0; i < n - 1; ++i) {
    acc += EntryBytes(p, i);
    if (acc * 2 >= total) return i + 1;
  }
  return n - 1;
}
}  // namespace

std::string BTree::EncodeChild(PageId id) {
  std::string v;
  PutFixed64(&v, id);
  return v;
}

PageId BTree::DecodeChild(const Slice& value) {
  AURORA_CHECK(value.size() == kChildEntrySize, "bad child entry");
  return DecodeFixed64(value.data());
}

Result<PageId> BTree::Create(PageProvider* provider, MiniTransaction* mtr) {
  Result<Page*> anchor =
      provider->AllocatePage(PageType::kMeta, /*level=*/0, mtr);
  if (!anchor.ok()) return anchor.status();
  Result<Page*> root =
      provider->AllocatePage(PageType::kBTreeLeaf, /*level=*/0, mtr);
  if (!root.ok()) return root.status();

  Status s = mtr->Apply(*anchor, RedoOp::kInsert,
                        LogRecord::MakeKeyValuePayload(
                            kRootKey, EncodeChild((*root)->page_id())));
  if (!s.ok()) return s;
  return (*anchor)->page_id();
}

Result<PageId> BTree::root_id() {
  Result<Page*> anchor = provider_->GetPage(anchor_id_);
  if (!anchor.ok()) return anchor.status();
  Slice v;
  if (!(*anchor)->GetRecord(kRootKey, &v)) {
    return Status::Corruption("btree anchor missing root pointer");
  }
  return DecodeChild(v);
}

Status BTree::DescendToLeaf(const Slice& key, std::vector<PathEntry>* path,
                            Page** leaf) {
  Result<PageId> root = root_id();
  if (!root.ok()) return root.status();
  PageId id = *root;
  while (true) {
    Result<Page*> p = provider_->GetPage(id);
    if (!p.ok()) return p.status();
    Page* page = *p;
    if (page->page_type() == PageType::kBTreeLeaf) {
      if (path != nullptr) path->push_back({page, -1});
      *leaf = page;
      return Status::OK();
    }
    if (page->page_type() != PageType::kBTreeInternal) {
      return Status::Corruption("unexpected page type in btree descent");
    }
    int slot = page->UpperBoundChild(key);
    if (slot < 0) {
      return Status::Corruption("btree internal page has no covering child");
    }
    if (path != nullptr) path->push_back({page, slot});
    id = DecodeChild(page->ValueAt(slot));
  }
}

Status BTree::Get(const Slice& key, std::string* value) {
  Page* leaf = nullptr;
  Status s = DescendToLeaf(key, /*path=*/nullptr, &leaf);
  if (!s.ok()) return s;
  Slice v;
  if (!leaf->GetRecord(key, &v)) return Status::NotFound("key not found");
  value->assign(v.data(), v.size());
  return Status::OK();
}

Status BTree::PlanForInsert(const std::vector<PathEntry>& path,
                            size_t key_size, size_t value_size) {
  // Walk from the leaf upward computing whether each level splits; the only
  // extra page a cascade can touch beyond the (already resident) path is the
  // leaf's right sibling, whose prev link must be rewired.
  int i = static_cast<int>(path.size()) - 1;
  Page* leaf = path[i].page;
  if (leaf->HasRoomFor(key_size, value_size)) return Status::OK();

  if (leaf->next_page() != kInvalidPage) {
    Result<Page*> sib = provider_->GetPage(leaf->next_page());
    if (!sib.ok()) return sib.status();
  }
  // Separator pushed up from a split of `page` is its mid key.
  Page* page = leaf;
  while (i > 0) {
    int n = page->slot_count();
    if (n < 2) break;  // degenerate; split logic handles it
    size_t sep_size = page->KeyAt(SplitPoint(page)).size();
    Page* parent = path[i - 1].page;
    if (parent->HasRoomFor(sep_size, kChildEntrySize)) return Status::OK();
    page = parent;
    --i;
  }
  return Status::OK();  // root split allocates; no fetches needed
}

Status BTree::SplitAndPropagate(std::vector<PathEntry>* path, const Slice& key,
                                MiniTransaction* mtr, Page** target) {
  Page* page = path->back().page;
  const bool is_leaf = page->page_type() == PageType::kBTreeLeaf;
  int n = page->slot_count();
  AURORA_CHECK(n >= 2, "cannot split page with fewer than two records");
  int mid = SplitPoint(page);

  // Logged as InnoDB logs a split: the upper half, encoded straight from
  // the page, becomes one kInsertList for the new right page, and one
  // kDeleteListEnd at the separator cuts it off this page. Both payloads
  // are built before any mutation, since slices die on mutation.
  std::string sep_key = page->KeyAt(mid).ToString();
  LogRecord copy;
  copy.op = RedoOp::kInsertList;
  for (int j = mid; j < n; ++j) {
    LogRecord::AppendListEntry(&copy.payload, page->KeyAt(j),
                               page->ValueAt(j));
  }
  LogRecord cut;
  cut.page_id = page->page_id();
  cut.op = RedoOp::kDeleteListEnd;
  cut.payload = LogRecord::MakeKeyPayload(sep_key);

  Result<Page*> right_r = provider_->AllocatePage(
      page->page_type(), page->level(), mtr);
  if (!right_r.ok()) return right_r.status();
  Page* right = *right_r;

  copy.page_id = right->page_id();
  Status s = mtr->Apply(right, std::move(copy));
  if (!s.ok()) return s;
  s = mtr->Apply(page, std::move(cut));
  if (!s.ok()) return s;

  if (is_leaf) {
    // Rewire the leaf chain: page <-> right <-> old_next.
    PageId old_next = page->next_page();
    s = mtr->Apply(right, RedoOp::kSetNext,
                   LogRecord::MakePageIdPayload(old_next));
    if (!s.ok()) return s;
    s = mtr->Apply(right, RedoOp::kSetPrev,
                   LogRecord::MakePageIdPayload(page->page_id()));
    if (!s.ok()) return s;
    s = mtr->Apply(page, RedoOp::kSetNext,
                   LogRecord::MakePageIdPayload(right->page_id()));
    if (!s.ok()) return s;
    if (old_next != kInvalidPage) {
      Result<Page*> sib = provider_->GetPage(old_next);
      // PlanForInsert guaranteed residency; a miss here is a logic error.
      AURORA_CHECK(sib.ok(), "leaf sibling not resident during split");
      s = mtr->Apply(*sib, RedoOp::kSetPrev,
                     LogRecord::MakePageIdPayload(right->page_id()));
      if (!s.ok()) return s;
    }
  }

  // Insert the separator into the parent (possibly cascading).
  if (path->size() == 1) {
    // Root split: allocate a new root one level up.
    Result<Page*> new_root_r = provider_->AllocatePage(
        PageType::kBTreeInternal, static_cast<uint8_t>(page->level() + 1),
        mtr);
    if (!new_root_r.ok()) return new_root_r.status();
    Page* new_root = *new_root_r;
    s = mtr->Apply(new_root, RedoOp::kInsert,
                   LogRecord::MakeKeyValuePayload(
                       Slice("", 0), EncodeChild(page->page_id())));
    if (!s.ok()) return s;
    s = mtr->Apply(new_root, RedoOp::kInsert,
                   LogRecord::MakeKeyValuePayload(
                       sep_key, EncodeChild(right->page_id())));
    if (!s.ok()) return s;

    Result<Page*> anchor = provider_->GetPage(anchor_id_);
    AURORA_CHECK(anchor.ok(), "anchor not resident during root split");
    s = mtr->Apply(*anchor, RedoOp::kUpdate,
                   LogRecord::MakeKeyValuePayload(
                       kRootKey, EncodeChild(new_root->page_id())));
    if (!s.ok()) return s;
  } else {
    std::vector<PathEntry> parent_path(path->begin(), path->end() - 1);
    Page* parent = parent_path.back().page;
    if (!parent->HasRoomFor(sep_key.size(), kChildEntrySize)) {
      Page* ptarget = nullptr;
      s = SplitAndPropagate(&parent_path, sep_key, mtr, &ptarget);
      if (!s.ok()) return s;
      parent = ptarget;
    }
    s = mtr->Apply(parent, RedoOp::kInsert,
                   LogRecord::MakeKeyValuePayload(
                       sep_key, EncodeChild(right->page_id())));
    if (!s.ok()) return s;
  }

  *target = key.compare(sep_key) < 0 ? page : right;
  return Status::OK();
}

Status BTree::Insert(const Slice& key, const Slice& value,
                     MiniTransaction* mtr) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  if (key.size() > provider_->page_size() / 16 ||
      value.size() > provider_->page_size() / 4) {
    return Status::InvalidArgument("key or value too large for page");
  }
  std::vector<PathEntry> path;
  Page* leaf = nullptr;
  Status s = DescendToLeaf(key, &path, &leaf);
  if (!s.ok()) return s;
  Slice existing;
  if (leaf->GetRecord(key, &existing)) {
    return Status::InvalidArgument("duplicate key");
  }
  s = PlanForInsert(path, key.size(), value.size());
  if (!s.ok()) return s;

  Page* target = leaf;
  if (!leaf->HasRoomFor(key.size(), value.size())) {
    s = SplitAndPropagate(&path, key, mtr, &target);
    if (!s.ok()) return s;
  }
  return mtr->Apply(target, RedoOp::kInsert,
                    LogRecord::MakeKeyValuePayload(key, value));
}

Status BTree::Update(const Slice& key, const Slice& value,
                     MiniTransaction* mtr) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  if (value.size() > provider_->page_size() / 4) {
    return Status::InvalidArgument("value too large for page");
  }
  std::vector<PathEntry> path;
  Page* leaf = nullptr;
  Status s = DescendToLeaf(key, &path, &leaf);
  if (!s.ok()) return s;
  Slice old;
  if (!leaf->GetRecord(key, &old)) return Status::NotFound("key not found");

  // In-place update works when the new value fits in free + dead + the old
  // record's space; otherwise split first (after which it always fits).
  size_t old_rec = VarintLength(key.size()) + key.size() +
                   VarintLength(old.size()) + old.size();
  size_t new_rec = VarintLength(key.size()) + key.size() +
                   VarintLength(value.size()) + value.size();
  bool fits = leaf->FreeSpace() + old_rec >= new_rec ||
              leaf->HasRoomFor(key.size(), value.size());
  Page* target = leaf;
  if (!fits) {
    s = PlanForInsert(path, key.size(), value.size());
    if (!s.ok()) return s;
    s = SplitAndPropagate(&path, key, mtr, &target);
    if (!s.ok()) return s;
  }
  return mtr->Apply(target, RedoOp::kUpdate,
                    LogRecord::MakeKeyValuePayload(key, value));
}

Status BTree::Upsert(const Slice& key, const Slice& value,
                     MiniTransaction* mtr) {
  Status s = Update(key, value, mtr);
  if (s.IsNotFound()) return Insert(key, value, mtr);
  return s;
}

Status BTree::PlanForUnlink(const std::vector<PathEntry>& path) {
  Page* leaf = path.back().page;
  if (leaf->prev_page() != kInvalidPage) {
    Result<Page*> p = provider_->GetPage(leaf->prev_page());
    if (!p.ok()) return p.status();
  }
  if (leaf->next_page() != kInvalidPage) {
    Result<Page*> p = provider_->GetPage(leaf->next_page());
    if (!p.ok()) return p.status();
  }
  return Status::OK();
}

Status BTree::UnlinkEmptyLeaf(std::vector<PathEntry>* path,
                              MiniTransaction* mtr) {
  Page* leaf = path->back().page;
  Page* parent = (*path)[path->size() - 2].page;
  const int slot = (*path)[path->size() - 2].child_slot;
  AURORA_CHECK(leaf->slot_count() == 0, "unlinking a non-empty leaf");
  AURORA_CHECK(slot >= 0 && DecodeChild(parent->ValueAt(slot)) ==
                                leaf->page_id(),
               "parent slot does not reference the unlinked leaf");

  // Splice the leaf out of the sibling chain: prev <-> next.
  const PageId prev = leaf->prev_page();
  const PageId next = leaf->next_page();
  if (prev != kInvalidPage) {
    Result<Page*> p = provider_->GetPage(prev);
    AURORA_CHECK(p.ok(), "left sibling not resident during unlink");
    Status s = mtr->Apply(*p, RedoOp::kSetNext,
                          LogRecord::MakePageIdPayload(next));
    if (!s.ok()) return s;
  }
  if (next != kInvalidPage) {
    Result<Page*> p = provider_->GetPage(next);
    AURORA_CHECK(p.ok(), "right sibling not resident during unlink");
    Status s = mtr->Apply(*p, RedoOp::kSetPrev,
                          LogRecord::MakePageIdPayload(prev));
    if (!s.ok()) return s;
  }

  // Drop the parent's child entry. The slot-0 key is the subtree's lower
  // bound (the empty key at the root); deleting it outright would strand
  // every key below the next separator during descent, so removing the
  // leftmost child instead re-points the slot-0 separator at its right
  // neighbour and drops that neighbour's own entry.
  if (slot == 0) {
    std::string sep0 = parent->KeyAt(0).ToString();
    std::string key1 = parent->KeyAt(1).ToString();
    std::string child1 = parent->ValueAt(1).ToString();
    Status s = mtr->Apply(parent, RedoOp::kUpdate,
                          LogRecord::MakeKeyValuePayload(sep0, child1));
    if (!s.ok()) return s;
    s = mtr->Apply(parent, RedoOp::kDelete, LogRecord::MakeKeyPayload(key1));
    if (!s.ok()) return s;
  } else {
    Status s = mtr->Apply(parent, RedoOp::kDelete,
                          LogRecord::MakeKeyPayload(parent->KeyAt(slot)));
    if (!s.ok()) return s;
  }
  return provider_->FreePage(leaf, mtr);
}

Status BTree::Delete(const Slice& key, MiniTransaction* mtr) {
  std::vector<PathEntry> path;
  Page* leaf = nullptr;
  Status s = DescendToLeaf(key, &path, &leaf);
  if (!s.ok()) return s;
  Slice v;
  if (!leaf->GetRecord(key, &v)) return Status::NotFound("key not found");
  // An emptied leaf is unlinked and freed when its parent can spare the
  // child entry (a parent's last child stays, like the root, so descent
  // always finds a leaf). Residency of everything the unlink touches is
  // ensured before the first mutation; a Busy here restarts cleanly.
  const bool unlink = leaf->slot_count() == 1 && path.size() > 1 &&
                      path[path.size() - 2].page->slot_count() >= 2;
  if (unlink) {
    s = PlanForUnlink(path);
    if (!s.ok()) return s;
  }
  s = mtr->Apply(leaf, RedoOp::kDelete, LogRecord::MakeKeyPayload(key));
  if (!s.ok()) return s;
  if (unlink) return UnlinkEmptyLeaf(&path, mtr);
  return Status::OK();
}

Status BTree::Scan(const Slice& start, int limit,
                   std::vector<std::pair<std::string, std::string>>* out) {
  return Walk(start, limit, [out](Slice key, Slice value) {
    out->emplace_back(key.ToString(), value.ToString());
  });
}

Result<uint64_t> BTree::CountForTesting() {
  // Walk down the leftmost spine, then the leaf chain.
  Result<PageId> root = root_id();
  if (!root.ok()) return root.status();
  PageId id = *root;
  while (true) {
    Result<Page*> p = provider_->GetPage(id);
    if (!p.ok()) return p.status();
    if ((*p)->page_type() == PageType::kBTreeLeaf) break;
    if ((*p)->slot_count() == 0) return Status::Corruption("empty internal");
    id = DecodeChild((*p)->ValueAt(0));
  }
  uint64_t count = 0;
  while (id != kInvalidPage) {
    Result<Page*> p = provider_->GetPage(id);
    if (!p.ok()) return p.status();
    count += (*p)->slot_count();
    id = (*p)->next_page();
  }
  return count;
}

namespace {

struct CheckContext {
  PageProvider* provider;
  int leaf_level_seen = -1;
};

Status CheckSubtree(CheckContext* ctx, PageId id, const std::string* lower,
                    const std::string* upper, int depth) {
  Result<Page*> p = ctx->provider->GetPage(id);
  if (!p.ok()) return p.status();
  Page* page = *p;
  int n = page->slot_count();
  for (int i = 1; i < n; ++i) {
    if (!(page->KeyAt(i - 1) < page->KeyAt(i))) {
      return Status::Corruption("keys out of order in page");
    }
  }
  for (int i = 0; i < n; ++i) {
    Slice k = page->KeyAt(i);
    // The leftmost entry of an internal node may carry the empty key.
    bool leftmost_internal =
        page->page_type() == PageType::kBTreeInternal && i == 0;
    if (lower && !leftmost_internal && k.compare(*lower) < 0) {
      return Status::Corruption("key below subtree lower bound");
    }
    if (upper && !k.empty() && k.compare(*upper) >= 0) {
      return Status::Corruption("key above subtree upper bound");
    }
  }
  if (page->page_type() == PageType::kBTreeLeaf) {
    if (ctx->leaf_level_seen == -1) {
      ctx->leaf_level_seen = depth;
    } else if (ctx->leaf_level_seen != depth) {
      return Status::Corruption("leaves at non-uniform depth");
    }
    return Status::OK();
  }
  if (page->page_type() != PageType::kBTreeInternal) {
    return Status::Corruption("unexpected page type");
  }
  if (n == 0) return Status::Corruption("empty internal page");
  for (int i = 0; i < n; ++i) {
    std::string child_lower = page->KeyAt(i).ToString();
    std::string child_upper;
    const std::string* up = upper;
    if (i + 1 < n) {
      child_upper = page->KeyAt(i + 1).ToString();
      up = &child_upper;
    }
    Slice cv = page->ValueAt(i);
    if (cv.size() != 8) return Status::Corruption("bad child pointer size");
    PageId child = DecodeFixed64(cv.data());
    const std::string* lo = (i == 0 && child_lower.empty()) ? lower : &child_lower;
    Status s = CheckSubtree(ctx, child, lo, up, depth + 1);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace

Status BTree::CheckInvariants() {
  Result<PageId> root = root_id();
  if (!root.ok()) return root.status();
  CheckContext ctx{provider_};
  return CheckSubtree(&ctx, *root, nullptr, nullptr, 0);
}

}  // namespace aurora
