// Fatal invariant checks for the host-side code. Simulated programs' console
// output goes through the HOSTIO peripheral, not through here.
#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

namespace amulet {

// Internal: prints "[E file:line] CHECK failed: <condition>" to stderr.
void LogCheckFailure(const char* file, int line, const char* condition);

}  // namespace amulet

// CHECK: fatal invariant assertions in host code (never for simulated-program
// conditions — those produce Status / simulated faults).
#define AMULET_CHECK(condition)                                  \
  do {                                                           \
    if (!(condition)) {                                          \
      ::amulet::LogCheckFailure(__FILE__, __LINE__, #condition); \
      __builtin_trap();                                          \
    }                                                            \
  } while (false)

#endif  // SRC_COMMON_LOGGING_H_
