#ifndef AURORA_PAGE_PAGE_H_
#define AURORA_PAGE_PAGE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "log/types.h"

namespace aurora {

/// Page types stored in the page header.
enum class PageType : uint8_t {
  kFree = 0,
  kBTreeLeaf = 1,
  kBTreeInternal = 2,
  kMeta = 3,
  kUndo = 4,
  kHeap = 5,  // direct-addressed data pages (hash layout for huge tables)
};

/// A fixed-size slotted page, byte-layout compatible across the writer, the
/// storage nodes and the replicas (pages travel over the simulated network
/// as raw bytes).
///
/// Layout:
///   [0..64)   header (magic, id, page LSN, type, level, schema version,
///             sibling links, slot count, heap end, dead space, CRC)
///   [64..heap_end)                 record heap, grows upward
///   [page_size - 2*nslots..end)    slot directory, grows downward; each
///                                  slot is the uint16 heap offset of a
///                                  record; slots are kept sorted by key
///
/// Records: varint32 key length | key | varint32 value length | value.
/// Deleting leaves dead heap space; the page compacts itself when needed.
///
/// Page mutations are raw operations; write-ahead discipline (a redo record
/// exists before the mutation) is enforced by the MTR/applicator layer, not
/// here.
class Page {
 public:
  static constexpr uint32_t kMagic = 0x41525047;  // "ARPG"
  static constexpr size_t kHeaderSize = 64;
  static constexpr size_t kMinPageSize = 256;
  static constexpr size_t kMaxPageSize = 32768;  // uint16 heap offsets

  /// Constructs an unformatted (all-zero) page buffer.
  explicit Page(size_t page_size);

  Page(const Page&) = default;
  Page& operator=(const Page&) = default;
  Page(Page&&) = default;
  Page& operator=(Page&&) = default;

  /// Initializes the header; erases all records.
  void Format(PageId id, PageType type, uint8_t level);

  /// True if the page carries a valid magic (has ever been formatted).
  bool IsFormatted() const;

  // --- Header accessors ----------------------------------------------------
  PageId page_id() const;
  Lsn page_lsn() const;
  void set_page_lsn(Lsn lsn);
  PageType page_type() const;
  uint8_t level() const;
  uint32_t schema_version() const;
  void set_schema_version(uint32_t v);
  PageId next_page() const;
  void set_next_page(PageId id);
  PageId prev_page() const;
  void set_prev_page(PageId id);

  // --- Record operations ---------------------------------------------------
  /// Inserts a new record. Fails with OutOfRange when the page is full
  /// (caller must split) and InvalidArgument when the key already exists.
  /// A key above the last record's is appended without a search.
  Status InsertRecord(const Slice& key, const Slice& value);

  /// Removes the record with `key`; NotFound if absent.
  Status DeleteRecord(const Slice& key);

  /// Removes the record with `key` and every record after it; NotFound if
  /// `key` is absent. The bytes equal DeleteRecord of each of those keys
  /// from the last one down.
  Status DeleteFrom(const Slice& key);

  /// Replaces the value of an existing record; NotFound if absent,
  /// OutOfRange if the larger value doesn't fit even after compaction.
  Status UpdateRecord(const Slice& key, const Slice& value);

  /// Point lookup. The returned slice points into the page; it is
  /// invalidated by any mutation.
  bool GetRecord(const Slice& key, Slice* value) const;

  int slot_count() const;
  /// Key / value of the record in sorted position `slot`.
  Slice KeyAt(int slot) const;
  Slice ValueAt(int slot) const;

  /// First slot whose key is >= `key` (== slot_count() if none).
  int LowerBound(const Slice& key) const;
  /// Last slot whose key is <= `key`, or -1 (internal-node child search).
  int UpperBoundChild(const Slice& key) const;

  /// Contiguous free space available for one more record of `need` bytes
  /// (including its slot); compaction is taken into account.
  bool HasRoomFor(size_t key_size, size_t value_size) const;
  size_t FreeSpace() const;

  // --- Integrity -----------------------------------------------------------
  /// Recomputes and stores the header CRC (over the whole page).
  void UpdateCrc();
  /// Verifies the stored CRC; used by the storage-node scrubber.
  bool VerifyCrc() const { return VerifyCrc(Slice(data_)); }
  /// Verifies the CRC stored in a page image's bytes (e.g. as received
  /// over the network) without loading them into a Page.
  static bool VerifyCrc(Slice bytes);
  /// Flips bits for fault-injection tests.
  void CorruptForTesting(size_t offset);

  // --- Raw access ----------------------------------------------------------
  size_t page_size() const { return data_.size(); }
  const std::string& raw() const { return data_; }
  /// Replaces the entire contents (e.g. from the network) in place. Size
  /// must match.
  Status LoadRaw(const Slice& bytes);
  /// Zero-fills the page in place: unformatted, as freshly constructed.
  void Clear();

 private:
  uint16_t nslots() const;
  void set_nslots(uint16_t n);
  uint16_t heap_end() const;
  void set_heap_end(uint16_t v);
  uint16_t dead_space() const;
  void set_dead_space(uint16_t v);

  uint16_t SlotOffset(int slot) const;
  void SetSlotOffset(int slot, uint16_t off);
  /// Decodes the record at heap offset `off`.
  void RecordAt(uint16_t off, Slice* key, Slice* value) const;
  /// Decodes the record at heap offset `off` of the page image `bytes`.
  static void DecodeRecord(const std::string& bytes, uint16_t off, Slice* key,
                           Slice* value);
  size_t RecordSize(const Slice& key, const Slice& value) const;
  /// Rewrites the heap dropping dead space.
  void Compact();
  /// Appends a record to the heap; returns its offset. Caller must have
  /// verified space.
  uint16_t AppendToHeap(const Slice& key, const Slice& value);

  std::string data_;
};

}  // namespace aurora

#endif  // AURORA_PAGE_PAGE_H_
