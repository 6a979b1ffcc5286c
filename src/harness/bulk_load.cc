#include "harness/bulk_load.h"

#include "harness/sync_ops.h"

namespace aurora {

namespace {

// Attaches the table through `db` and runs `cluster` until it is durable.
template <typename Cluster, typename Db>
Result<const SyntheticTableLayout*> Attach(Cluster* cluster, Db* db,
                                           SyntheticCatalog* catalog,
                                           const std::string& name,
                                           uint64_t rows, size_t value_size) {
  const SyntheticTableLayout* layout = nullptr;
  size_t page_size = db->page_size();
  Result<PageId> result = RunSync<Result<PageId>>(
      cluster, "attach did not finish", Seconds(60), [&](auto done) {
        db->AttachPreloadedTable(
            name,
            [&](PageId first) -> uint64_t {
              auto t = std::make_unique<SyntheticTableLayout>(
                  first, rows, page_size, value_size);
              layout = catalog->Add(std::move(t));
              return layout->page_count();
            },
            done);
      });
  if (!result.ok()) return result.status();
  return layout;
}

}  // namespace

Result<const SyntheticTableLayout*> AttachSyntheticTable(
    AuroraCluster* cluster, SyntheticCatalog* catalog,
    const std::string& name, uint64_t rows, size_t value_size) {
  auto layout =
      Attach(cluster, cluster->writer(), catalog, name, rows, value_size);
  if (!layout.ok()) return layout;
  cluster->control_plane()->SetPageSynthesizer(
      [catalog](PageId page, Page* out) {
        return catalog->BuildPage(page, out);
      });
  return layout;
}

Result<const SyntheticTableLayout*> AttachSyntheticTableMysql(
    MysqlCluster* cluster, SyntheticCatalog* catalog, const std::string& name,
    uint64_t rows, size_t value_size) {
  auto layout = Attach(cluster, cluster->db(), catalog, name, rows, value_size);
  if (!layout.ok()) return layout;
  cluster->db()->set_page_synthesizer([catalog](PageId page, Page* out) {
    return catalog->BuildPage(page, out);
  });
  return layout;
}

}  // namespace aurora
