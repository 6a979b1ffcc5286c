// Fixture: std::function in the engine's log writer, which runs for every
// MTR and every write ack; other src/engine files (see the L-rule fixtures)
// are not on the hot path.
#ifndef FIXTURE_LOG_WRITER_H_
#define FIXTURE_LOG_WRITER_H_

#include <functional>

namespace fixture {

struct LogHooks {
  std::function<void(unsigned long)> on_vdl_advanced;  // H1
};

}  // namespace fixture

#endif  // FIXTURE_LOG_WRITER_H_
