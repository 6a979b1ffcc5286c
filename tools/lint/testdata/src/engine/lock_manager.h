// Fixture: std::function in the engine's lock table, which is on the hot
// path; other src/engine files (see the L-rule fixtures) are not.
#ifndef FIXTURE_LOCK_MANAGER_H_
#define FIXTURE_LOCK_MANAGER_H_

#include <functional>

namespace fixture {

struct Waiter {
  std::function<void(bool)> granted;  // H1
};

}  // namespace fixture

#endif  // FIXTURE_LOCK_MANAGER_H_
