// Fixture: std::function in the page layer (per-operation hot path).
#ifndef FIXTURE_PAGE_POSITIVE_H1_H_
#define FIXTURE_PAGE_POSITIVE_H1_H_

#include <functional>

namespace fixture {

struct PageHooks {
  std::function<void(int)> on_lookup;  // H1
};

}  // namespace fixture

#endif  // FIXTURE_PAGE_POSITIVE_H1_H_
