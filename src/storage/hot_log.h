#ifndef AURORA_STORAGE_HOT_LOG_H_
#define AURORA_STORAGE_HOT_LOG_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "log/log_record.h"
#include "log/types.h"

namespace aurora {

/// A segment's hot log (DESIGN.md §5): the records it holds, in LSN order,
/// kept as runs and read as RecordViews of their batches. A run is a
/// stretch of consecutive records of one decoded batch, all held here, and
/// keeps one reference to the batch: adding a record allocates nothing,
/// and a batch is freed once no replica holds any of its records. A record
/// is *implied* when it directly follows, in its run, the record its
/// backlink names: the run states that link, so the segment's backlink
/// index keeps no entry for it. It is *page-implied* when its run holds its
/// batch's previous record of the same page: the batch's same-page links
/// (RecordBatch) lead to it from that record, so the segment's page index
/// keeps no entry for it either.
class HotLog {
  struct Run {
    SharedRecords owner;
    uint32_t begin;  // [begin, end) indexes *owner
    uint32_t end;
    Lsn last_lsn;
    RecordView operator[](uint32_t i) const { return (*owner)[i]; }
    bool Implied(uint32_t i) const {
      return i > begin && (*this)[i].prev_pg_lsn == owner->lsn(i - 1);
    }
    bool PageImplied(uint32_t i) const {
      const uint32_t back = owner->prev_on_page(i);
      return back != 0 && i - back >= begin;
    }
  };
  using Runs = std::deque<Run>;

 public:
  /// Forward iteration over the records, in LSN order. It yields views by
  /// value; `->` reads one through a temporary.
  class Iterator {
    struct Arrow {
      RecordView record;
      const RecordView* operator->() const { return &record; }
    };

   public:
    RecordView operator*() const { return (*run_)[i_]; }
    Arrow operator->() const { return {**this}; }
    Iterator& operator++() {
      if (++i_ == run_->end) {
        ++run_;
        i_ = run_ == end_ ? 0 : run_->begin;
      }
      return *this;
    }
    bool operator==(const Iterator& o) const = default;

   private:
    friend class HotLog;
    Iterator(Runs::const_iterator run, Runs::const_iterator end, uint32_t i)
        : run_(run), end_(end), i_(i) {}
    Runs::const_iterator run_;
    Runs::const_iterator end_;
    uint32_t i_;
  };

  bool empty() const { return runs_.empty(); }
  size_t size() const { return size_; }
  size_t runs() const { return runs_.size(); }
  RecordView front() const { return runs_.front()[runs_.front().begin]; }
  RecordView back() const { return runs_.back()[runs_.back().end - 1]; }
  /// back().lsn, or kInvalidLsn when empty, without touching the record.
  Lsn last_lsn() const { return empty() ? kInvalidLsn : runs_.back().last_lsn; }
  Iterator begin() const { return UpperBound(kInvalidLsn); }
  Iterator end() const { return {runs_.end(), runs_.end(), 0}; }

  /// The first record with LSN > `lsn`. LSNs are integers, so the first
  /// with LSN >= `lsn` is UpperBound(lsn - 1).
  Iterator UpperBound(Lsn lsn) const {
    // Runs are disjoint and ordered: the first run whose last record is
    // above `lsn` holds the first record that is.
    auto run = std::partition_point(
        runs_.begin(), runs_.end(),
        [lsn](const Run& r) { return r.last_lsn <= lsn; });
    if (run == runs_.end()) return end();
    return {run, runs_.end(),
            run->owner->UpperBound(run->begin, run->end, lsn)};
  }
  bool Contains(Lsn lsn) const {
    const Iterator it = UpperBound(lsn - 1);
    return it != end() && it->lsn == lsn;
  }
  /// The LSN of the implied record whose backlink is `prev`, if one is
  /// held; kInvalidLsn otherwise.
  Lsn ImpliedSuccessor(Lsn prev) const {
    const Iterator it = UpperBound(prev);
    if (it == end() || it->prev_pg_lsn != prev) return kInvalidLsn;
    return it.run_->Implied(it.i_) ? it->lsn : kInvalidLsn;
  }

  /// Where Add placed a record.
  struct Placed {
    bool held = false;          // its LSN was already held; nothing changed
    bool implied = false;       // its run states its backlink
    bool page_implied = false;  // its run holds its previous page record
    /// The implied record a split cut from its predecessor, and its
    /// backlink; kInvalidLsn when the split cut none.
    Lsn cut = kInvalidLsn;
    Lsn cut_prev = kInvalidLsn;
  };
  /// Places `(*owner)[i]`. It extends the run before its place when it is
  /// the next record of that run's batch, and starts a run otherwise,
  /// splitting the run it falls in; nearly every record is the newest, and
  /// is placed in O(1). When the split cuts an implied record from its
  /// predecessor, `cut` names that record, and `page_cut` is called with
  /// each record it cuts from its previous record of the same page.
  template <typename PageCut>
  Placed Add(const SharedRecords& owner, uint32_t i, PageCut page_cut) {
    const Lsn lsn = owner->lsn(i);
    Placed placed;
    auto run = runs_.end();
    if (lsn <= last_lsn()) {
      const Iterator at = UpperBound(lsn - 1);
      run = runs_.begin() + (at.run_ - runs_.cbegin());
      const uint32_t k = at.i_;
      if (run->owner->lsn(k) == lsn) return {.held = true};
      if (k != run->begin) {  // split: the head keeps the records below
        const Lsn below = run->owner->lsn(k - 1);
        if (run->Implied(k)) {
          placed.cut = run->owner->lsn(k);
          placed.cut_prev = below;
        }
        Run head{run->owner, run->begin, k, below};
        run->begin = k;
        for (uint32_t j = k; j < run->end; ++j) {
          if (head.PageImplied(j) && !run->PageImplied(j)) page_cut((*run)[j]);
        }
        run = runs_.insert(run, std::move(head)) + 1;
      }
    }
    ++size_;
    if (run != runs_.begin()) {
      Run& before = *std::prev(run);
      if (before.owner == owner && before.end == i) {
        ++before.end;
        before.last_lsn = lsn;
        placed.implied = before.Implied(i);
        placed.page_implied = before.PageImplied(i);
        return placed;
      }
    }
    runs_.insert(run, Run{owner, i, i + 1, lsn});
    return placed;
  }

  /// Calls `visit(record)` for the held record `lsn` names, then for each
  /// later record of its page in its run, in LSN order, while `visit`
  /// returns true: one search, then the batch's same-page links.
  template <typename Visit>
  void WalkPage(Lsn lsn, Visit visit) const {
    const Iterator at = UpperBound(lsn - 1);
    AURORA_CHECK(at != end() && at->lsn == lsn, "page entry names no record");
    const Run& run = *at.run_;
    for (uint32_t i = at.i_; visit(run[i]);) {
      const uint32_t step = run.owner->next_on_page(i);
      if (step == 0 || step >= run.end - i) return;
      i += step;
    }
  }

  /// What dropping the oldest record leaves unstated in its run: LSNs, or
  /// kInvalidLsn for none.
  struct Popped {
    Lsn implied = kInvalidLsn;    // the next record, if implied
    Lsn page_next = kInvalidLsn;  // the next record of its page
  };
  /// Drops the oldest record. The run now starts after it, so its next
  /// record is no longer implied, nor its next record of the same page
  /// page-implied.
  Popped PopFront() {
    --size_;
    Run& oldest = runs_.front();
    const uint32_t next = oldest.begin + 1;
    if (next == oldest.end) {
      runs_.pop_front();
      return {};
    }
    Popped popped;
    if (oldest.Implied(next)) popped.implied = oldest.owner->lsn(next);
    const uint32_t step = oldest.owner->next_on_page(oldest.begin);
    if (step != 0 && step < oldest.end - oldest.begin) {
      popped.page_next = oldest.owner->lsn(oldest.begin + step);
    }
    oldest.begin = next;
    return popped;
  }
  void PopBack() {
    --size_;
    Run& newest = runs_.back();
    if (--newest.end == newest.begin) {
      runs_.pop_back();
    } else {
      newest.last_lsn = newest.owner->lsn(newest.end - 1);
    }
  }

 private:
  Runs runs_;
  size_t size_ = 0;
};

}  // namespace aurora

#endif  // AURORA_STORAGE_HOT_LOG_H_
