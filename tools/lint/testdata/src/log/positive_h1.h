// Fixture: std::function in the redo/mini-transaction layer (per-record
// hot path).
#ifndef FIXTURE_LOG_POSITIVE_H1_H_
#define FIXTURE_LOG_POSITIVE_H1_H_

#include <functional>

namespace fixture {

struct MtrHooks {
  std::function<void(int)> on_apply;  // H1
};

}  // namespace fixture

#endif  // FIXTURE_LOG_POSITIVE_H1_H_
