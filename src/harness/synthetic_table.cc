#include "harness/synthetic_table.h"

#include <algorithm>
#include <cstdio>

#include "common/coding.h"
#include "common/logging.h"
#include "engine/row_codec.h"

namespace aurora {

namespace {
constexpr double kLeafFill = 0.7;      // headroom for in-place growth
constexpr double kInternalFill = 0.9;
constexpr size_t kKeyBytes = 19;       // "key%016llu"
}  // namespace

SyntheticTableLayout::SyntheticTableLayout(PageId first_page, uint64_t rows,
                                           size_t page_size,
                                           size_t value_size)
    : first_page_(first_page),
      rows_(rows),
      page_size_(page_size),
      value_size_(value_size) {
  const size_t usable = page_size - Page::kHeaderSize;
  // Leaf entry: varint(keylen)+key + varint(vallen) + stamp + value + slot.
  const size_t leaf_entry = 1 + kKeyBytes + 2 + 1 + value_size + 2;
  rows_per_leaf_ = std::max<size_t>(
      2, static_cast<size_t>(static_cast<double>(usable) * kLeafFill /
                             static_cast<double>(leaf_entry)));
  // Internal entry: key + 8-byte child + slot.
  const size_t internal_entry = 1 + kKeyBytes + 1 + 8 + 2;
  uint64_t fanout = std::max<uint64_t>(
      2, static_cast<uint64_t>(static_cast<double>(usable) * kInternalFill /
                               static_cast<double>(internal_entry)));

  uint64_t n = (rows_ + rows_per_leaf_ - 1) / rows_per_leaf_;
  if (n == 0) n = 1;
  PageId next = first_page_ + 1;  // first_page_ itself is the anchor
  levels_.push_back({next, n, 1});
  next += n;
  while (n > 1) {
    uint64_t parents = (n + fanout - 1) / fanout;
    levels_.push_back({next, parents, fanout});
    next += parents;
    n = parents;
  }
  total_pages_ = next - first_page_;
}

std::string SyntheticTableLayout::KeyOf(uint64_t row) {
  std::string key;
  KeyInto(row, &key);
  return key;
}

void SyntheticTableLayout::KeyInto(uint64_t row, std::string* key) {
  // "key%016llu", written digit by digit: this runs once per select and
  // once per synthesized row. Rows of 10^16 and up print wider than 16
  // digits and take the printf path.
  constexpr uint64_t kPaddedRows = 10'000'000'000'000'000ull;
  if (row >= kPaddedRows) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%016llu",
             static_cast<unsigned long long>(row));
    key->assign(buf);
    return;
  }
  key->assign("key0000000000000000", kKeyBytes);
  for (size_t i = kKeyBytes; row != 0; row /= 10) {
    (*key)[--i] = static_cast<char>('0' + row % 10);
  }
}

std::string SyntheticTableLayout::UserValueOf(uint64_t row) const {
  return std::string(value_size_, FillOf(row));
}

std::string SyntheticTableLayout::StoredValueOf(uint64_t row) const {
  return EncodeRow(/*version=*/0, UserValueOf(row));
}

PageId SyntheticTableLayout::LeafOf(uint64_t row) const {
  return levels_[0].first + row / rows_per_leaf_;
}

uint64_t SyntheticTableLayout::FirstRowOf(size_t level_idx,
                                          uint64_t node_idx) const {
  uint64_t leaf = node_idx;
  for (size_t l = level_idx; l > 0; --l) {
    leaf *= levels_[l].fanout;
  }
  return leaf * rows_per_leaf_;
}

PageId SyntheticTableLayout::PageOf(size_t level_idx,
                                    uint64_t node_idx) const {
  return levels_[level_idx].first + node_idx;
}

bool SyntheticTableLayout::BuildPage(PageId page, Page* out) const {
  if (!Contains(page)) return false;
  if (page == first_page_) {
    BuildAnchor(out);
    return true;
  }
  for (size_t l = 0; l < levels_.size(); ++l) {
    const Level& level = levels_[l];
    if (page >= level.first && page < level.first + level.count) {
      if (l == 0) {
        BuildLeaf(page - level.first, out);
      } else {
        BuildInternal(l, page - level.first, out);
      }
      return true;
    }
  }
  return false;
}

void SyntheticTableLayout::BuildAnchor(Page* out) const {
  out->Format(first_page_, PageType::kMeta, 0);
  std::string root;
  PutFixed64(&root, PageOf(levels_.size() - 1, 0));
  Status s = out->InsertRecord("root", root);
  AURORA_CHECK(s.ok(), "synthetic anchor build failed");
  out->UpdateCrc();
}

void SyntheticTableLayout::BuildLeaf(uint64_t leaf_idx, Page* out) const {
  out->Format(PageOf(0, leaf_idx), PageType::kBTreeLeaf, 0);
  uint64_t lo = leaf_idx * rows_per_leaf_;
  uint64_t hi = std::min<uint64_t>(rows_, lo + rows_per_leaf_);
  // One key and one stored value per page, rewritten in place per row: a
  // row's stored value differs from its neighbour's only in the fill byte
  // after the codec stamp.
  std::string key;
  std::string value = StoredValueOf(lo);
  for (uint64_t row = lo; row < hi; ++row) {
    KeyInto(row, &key);
    std::fill(value.end() - static_cast<std::ptrdiff_t>(value_size_),
              value.end(), FillOf(row));
    Status s = out->InsertRecord(key, value);
    AURORA_CHECK(s.ok(), "synthetic leaf build overflow");
  }
  if (leaf_idx > 0) out->set_prev_page(PageOf(0, leaf_idx - 1));
  if (leaf_idx + 1 < levels_[0].count) {
    out->set_next_page(PageOf(0, leaf_idx + 1));
  }
  out->UpdateCrc();
}

void SyntheticTableLayout::BuildInternal(size_t level_idx, uint64_t node_idx,
                                         Page* out) const {
  const Level& level = levels_[level_idx];
  out->Format(PageOf(level_idx, node_idx), PageType::kBTreeInternal,
              static_cast<uint8_t>(level_idx));
  uint64_t child_lo = node_idx * level.fanout;
  uint64_t child_hi =
      std::min<uint64_t>(levels_[level_idx - 1].count,
                         child_lo + level.fanout);
  bool is_root =
      level_idx + 1 == levels_.size();
  for (uint64_t c = child_lo; c < child_hi; ++c) {
    std::string key;
    if (is_root && c == child_lo) {
      key = "";  // the root's leftmost entry covers every smaller key
    } else {
      key = KeyOf(FirstRowOf(level_idx - 1, c));
    }
    std::string child;
    PutFixed64(&child, PageOf(level_idx - 1, c));
    Status s = out->InsertRecord(key, child);
    AURORA_CHECK(s.ok(), "synthetic internal build overflow");
  }
  out->UpdateCrc();
}

}  // namespace aurora
