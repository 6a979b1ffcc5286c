// Fixture: std::function in the shared transaction layer, which runs for
// every statement's lock request and every undo step.
#ifndef FIXTURE_TRANSACTIONS_H_
#define FIXTURE_TRANSACTIONS_H_

#include <functional>

namespace fixture {

struct GrantHooks {
  std::function<void(int)> on_lock_failed;  // H1
};

}  // namespace fixture

#endif  // FIXTURE_TRANSACTIONS_H_
