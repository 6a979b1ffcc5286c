// Storage deep dive: watches one protection group as the Figure 4 pipeline
// runs — batch receipt and SCL advancement, VDL propagation, background
// coalescing, PGMRPL-driven garbage collection, S3 backup staging, and a
// point-in-time page reconstruction served at a read point.
//
//   ./build/examples/storage_deep_dive

#include <cstdio>

#include "harness/cluster.h"
#include "harness/synthetic_table.h"

using namespace aurora;  // examples only

namespace {

void DumpPg(AuroraCluster* cluster, PgId pg, const char* moment) {
  printf("\n[%s] protection group %u (writer VDL=%llu)\n", moment, pg,
         static_cast<unsigned long long>(cluster->writer()->vdl()));
  printf("  %-10s %3s %12s %12s %10s %10s %8s\n", "node", "az", "scl",
         "applied", "hot log", "pages", "backup");
  const PgMembership& members = cluster->control_plane()->membership(pg);
  for (sim::NodeId node : members.nodes) {
    StorageNode* sn = cluster->storage_node_by_id(node);
    if (sn == nullptr) continue;
    const Segment* seg = sn->segment(pg);
    if (seg == nullptr) continue;
    printf("  %-10s %3d %12llu %12llu %10zu %10zu %8llu\n",
           cluster->topology()->name_of(node).c_str(),
           cluster->topology()->az_of(node),
           static_cast<unsigned long long>(seg->scl()),
           static_cast<unsigned long long>(seg->applied_lsn()),
           seg->hot_log_size(), seg->num_pages(),
           static_cast<unsigned long long>(seg->backup_lsn()));
  }
}

}  // namespace

int main() {
  ClusterOptions options;
  options.engine.page_size = 4096;
  options.engine.pages_per_pg = 64;
  options.storage.backup_interval = Millis(100);
  AuroraCluster cluster(options);
  (void)cluster.BootstrapSync();
  (void)cluster.CreateTableSync("t");
  PageId table = *cluster.TableAnchorSync("t");

  DumpPg(&cluster, 0, "after bootstrap");

  printf("\n-- writing 300 rows --\n");
  for (int i = 0; i < 300; ++i) {
    (void)cluster.PutSync(table, SyntheticTableLayout::KeyOf(i),
                          std::string(120, 'x'));
  }
  DumpPg(&cluster, 0, "right after writes (hot log full, little coalesced)");

  printf("\n-- letting background work run for 3 simulated seconds --\n");
  cluster.RunFor(Seconds(3));
  DumpPg(&cluster, 0, "after coalesce + GC (hot log drained into pages)");

  // Storage-level point read: ask a segment for a page as of the VDL and
  // verify its checksum — the "log is the database" cache in action.
  const PgMembership& members = cluster.control_plane()->membership(0);
  StorageNode* sn = cluster.storage_node_by_id(members.nodes[0]);
  const Segment* seg = sn->segment(0);
  Lsn read_point = cluster.writer()->vdl();
  for (PageId page = 0; page < 8; ++page) {
    auto as_of = seg->GetPageAsOf(page, read_point);
    if (as_of.ok()) {
      const Page& image = **as_of;
      printf("\npage %llu as of LSN %llu: %d records, page LSN %llu, CRC %s\n",
             static_cast<unsigned long long>(page),
             static_cast<unsigned long long>(read_point),
             image.slot_count(),
             static_cast<unsigned long long>(image.page_lsn()),
             image.VerifyCrc() ? "ok" : "BAD");
      break;
    }
  }

  printf("\nS3 backup objects staged: %llu (%llu bytes)\n",
         static_cast<unsigned long long>(cluster.s3()->num_objects()),
         static_cast<unsigned long long>(cluster.s3()->bytes_stored()));

  const sim::NetStats total = cluster.network()->total();
  printf("network totals: %llu messages, %llu packets, %llu bytes\n",
         static_cast<unsigned long long>(total.messages_sent),
         static_cast<unsigned long long>(total.packets_sent),
         static_cast<unsigned long long>(total.bytes_sent));
  return 0;
}
