#include "storage/base_image_store.h"

namespace aurora {

BaseImageStore::Image BaseImageStore::Intern(PageId page,
                                             std::shared_ptr<Page> image) {
  MutexLock lock(&mu_);
  std::vector<std::weak_ptr<const Page>>& images = images_[page];
  std::erase_if(images, [](const auto& held) { return held.expired(); });
  for (const std::weak_ptr<const Page>& entry : images) {
    Image held = entry.lock();
    // The page LSN only filters: a replica that coalesced an annulled
    // record reaches the same page LSN with different bytes.
    if (held != nullptr && held->page_lsn() == image->page_lsn() &&
        held->raw() == image->raw()) {
      return held;
    }
  }
  images.push_back(image);
  return image;
}

}  // namespace aurora
