#include "log/applicator.h"

namespace aurora {

namespace {

// A list is checked whole before its first insert, so a malformed one
// leaves the page untouched. A full page or a key the page already holds
// still fails partway, as the kInsert records it stands for would; the
// forward path's MTR then restores the page.
Status InsertList(const RecordView& record, Page* page) {
  Slice list = record.payload, key, value, prev;
  if (list.empty()) return Status::Corruption("empty insert list");
  for (bool first = true; !list.empty(); first = false, prev = key) {
    Status s = LogRecord::GetListEntry(&list, &key, &value);
    if (!s.ok()) return s;
    if (!first && prev.compare(key) >= 0) {
      return Status::Corruption("insert list keys not ascending");
    }
  }
  for (list = record.payload; !list.empty();) {
    Status s = LogRecord::GetListEntry(&list, &key, &value);
    if (s.ok()) s = page->InsertRecord(key, value);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace

Status LogApplicator::Apply(const RecordView& record, Page* page) {
  if (record.lsn != kInvalidLsn && page->IsFormatted() &&
      page->page_lsn() >= record.lsn) {
    return Status::OK();  // already applied
  }
  if (!page->IsFormatted() && record.op != RedoOp::kFormatPage) {
    // Redo is a delta over prior page state. On an unformatted buffer the
    // slotted-page fields are all zero, so a record mutation would grow the
    // heap from offset 0 straight through the header. This only arises when
    // the base image was lost (e.g. dropped for repair) after the format
    // record retired into it — the page is unrecoverable from local state.
    return Status::Corruption("redo apply to unformatted page");
  }
  Status s;
  switch (record.op) {
    case RedoOp::kFormatPage: {
      uint8_t type, level;
      s = record.GetFormat(&type, &level);
      if (!s.ok()) return s;
      page->Format(record.page_id, static_cast<PageType>(type), level);
      break;
    }
    case RedoOp::kInsert: {
      Slice key, value;
      s = record.GetKeyValue(&key, &value);
      if (!s.ok()) return s;
      s = page->InsertRecord(key, value);
      if (!s.ok()) return s;
      break;
    }
    case RedoOp::kDelete: {
      Slice key;
      s = record.GetKey(&key);
      if (!s.ok()) return s;
      s = page->DeleteRecord(key);
      if (!s.ok()) return s;
      break;
    }
    case RedoOp::kUpdate: {
      Slice key, value;
      s = record.GetKeyValue(&key, &value);
      if (!s.ok()) return s;
      s = page->UpdateRecord(key, value);
      if (!s.ok()) return s;
      break;
    }
    case RedoOp::kSetNext: {
      PageId id;
      s = record.GetPageId(&id);
      if (!s.ok()) return s;
      page->set_next_page(id);
      break;
    }
    case RedoOp::kSetPrev: {
      PageId id;
      s = record.GetPageId(&id);
      if (!s.ok()) return s;
      page->set_prev_page(id);
      break;
    }
    case RedoOp::kSetSchemaVersion: {
      uint32_t v;
      s = record.GetVersion(&v);
      if (!s.ok()) return s;
      page->set_schema_version(v);
      break;
    }
    case RedoOp::kInsertList:
      s = InsertList(record, page);
      if (!s.ok()) return s;
      break;
    case RedoOp::kDeleteListEnd: {
      Slice key;
      s = record.GetKey(&key);
      if (!s.ok()) return s;
      s = page->DeleteFrom(key);
      if (!s.ok()) return s;
      break;
    }
    default:
      return Status::Corruption("unknown redo op");
  }
  if (record.lsn != kInvalidLsn) {
    page->set_page_lsn(record.lsn);
  }
  return Status::OK();
}

Status LogApplicator::ApplyAll(const std::vector<LogRecord>& records,
                               Page* page) {
  for (const LogRecord& r : records) {
    Status s = Apply(r, page);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace aurora
