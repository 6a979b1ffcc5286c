#ifndef AURORA_HARNESS_SYNTHETIC_TABLE_H_
#define AURORA_HARNESS_SYNTHETIC_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "log/types.h"
#include "page/page.h"

namespace aurora {

/// A deterministically pre-loaded table: the B+-tree layout (which leaf
/// holds which rows, where the internal levels live) is a pure function of
/// the row count, so any page can be synthesized on first touch instead of
/// being materialized during a load phase. This is the simulation analogue
/// of attaching a volume restored from an S3 snapshot, and is what makes
/// 100 GB / 1 TB-class benchmark databases (§6.1.2) feasible in memory.
///
/// Keys are "key%016llu" (memcmp order == numeric order); values are
/// `value_size` deterministic bytes prefixed with the row-codec version
/// stamp the engine uses.
class SyntheticTableLayout {
 public:
  /// Plans a table of `rows` rows whose pages occupy [first_page,
  /// first_page + PageCount()). The anchor page (holding the root pointer)
  /// is the FIRST page of the range.
  SyntheticTableLayout(PageId first_page, uint64_t rows, size_t page_size,
                       size_t value_size);

  PageId anchor() const { return first_page_; }
  PageId first_page() const { return first_page_; }
  uint64_t page_count() const { return total_pages_; }
  PageId end_page() const { return first_page_ + total_pages_; }
  uint64_t rows() const { return rows_; }
  size_t rows_per_leaf() const { return rows_per_leaf_; }

  /// True if `page` belongs to this table.
  bool Contains(PageId page) const {
    return page >= first_page_ && page < end_page();
  }

  /// Synthesizes the content of `page` (anchor, internal node or leaf).
  bool BuildPage(PageId page, Page* out) const;

  /// Key / stored value of row `row` (value includes the row-codec stamp).
  static std::string KeyOf(uint64_t row);
  std::string StoredValueOf(uint64_t row) const;
  /// The user-visible value (without the codec stamp).
  std::string UserValueOf(uint64_t row) const;

  /// Leaf page id holding `row`.
  PageId LeafOf(uint64_t row) const;

 private:
  struct Level {
    PageId first;     // first page id of this level
    uint64_t count;   // nodes in this level
    uint64_t fanout;  // children per node (except possibly the last)
  };

  /// Writes KeyOf(row) into `key`, reusing its buffer.
  static void KeyInto(uint64_t row, std::string* key);
  /// The byte row `row`'s user value repeats.
  static char FillOf(uint64_t row) { return static_cast<char>('a' + row % 23); }
  void BuildLeaf(uint64_t leaf_idx, Page* out) const;
  void BuildInternal(size_t level_idx, uint64_t node_idx, Page* out) const;
  void BuildAnchor(Page* out) const;
  /// First row covered by node `node_idx` of level `level_idx` (level 0 =
  /// leaves).
  uint64_t FirstRowOf(size_t level_idx, uint64_t node_idx) const;
  PageId PageOf(size_t level_idx, uint64_t node_idx) const;

  PageId first_page_;
  uint64_t rows_;
  size_t page_size_;
  size_t value_size_;
  size_t rows_per_leaf_;
  uint64_t total_pages_;
  std::vector<Level> levels_;  // levels_[0] = leaves, back() = root level
};

/// Registry of synthetic tables; install as the fleet-wide page synthesizer.
class SyntheticCatalog {
 public:
  const SyntheticTableLayout* Add(std::unique_ptr<SyntheticTableLayout> t) {
    tables_.push_back(std::move(t));
    return tables_.back().get();
  }

  bool BuildPage(PageId page, Page* out) const {
    for (const auto& t : tables_) {
      if (t->Contains(page)) return t->BuildPage(page, out);
    }
    return false;
  }

 private:
  std::vector<std::unique_ptr<SyntheticTableLayout>> tables_;
};

}  // namespace aurora

#endif  // AURORA_HARNESS_SYNTHETIC_TABLE_H_
