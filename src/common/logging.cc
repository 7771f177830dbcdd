#include "src/common/logging.h"

#include <cstdio>
#include <cstring>

namespace amulet {

void LogCheckFailure(const char* file, int line, const char* condition) {
  const char* slash = std::strrchr(file, '/');
  std::fprintf(stderr, "[E %s:%d] CHECK failed: %s\n", slash != nullptr ? slash + 1 : file, line,
               condition);
}

}  // namespace amulet
