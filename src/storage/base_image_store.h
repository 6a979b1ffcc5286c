#ifndef AURORA_STORAGE_BASE_IMAGE_STORE_H_
#define AURORA_STORAGE_BASE_IMAGE_STORE_H_

#include <map>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "log/types.h"
#include "page/page.h"

namespace aurora {

/// The materialized base page images of one volume, shared by all of its
/// segment replicas (DESIGN.md §5). The six replicas of a PG coalesce the
/// same records into byte-equal images; interning lets them hold one copy.
/// An interned image is never changed again: a segment that advances a
/// page copies its image first.
///
/// The store keeps weak references, so an image is freed when its last
/// holder drops it. Thread-safe: under PDES the replicas of a PG coalesce
/// on different shard threads. Which copies end up shared can depend on how
/// those threads interleave, so no sharing count leaves this class.
class BaseImageStore {
 public:
  using Image = std::shared_ptr<const Page>;

  /// Returns an image of `page` held here whose bytes equal `image`'s,
  /// adding `image` when there is none. The caller must not change the
  /// image after this.
  Image Intern(PageId page, std::shared_ptr<Page> image) EXCLUDES(mu_);

 private:
  Mutex mu_;
  std::map<PageId, std::vector<std::weak_ptr<const Page>>> images_
      GUARDED_BY(mu_);
};

}  // namespace aurora

#endif  // AURORA_STORAGE_BASE_IMAGE_STORE_H_
