#ifndef PMJOIN_TOOLS_FLAGS_H_
#define PMJOIN_TOOLS_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "server/job.h"

namespace pmjoin {

// Flag parsing shared by the pmjoin_cli and pmjoin_server command lines.

/// True when `arg` is `name=VALUE`; stores VALUE in `out`.
inline bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

/// Parses `value`, the value of the numeric flag argument `arg`, with the
/// job grammar's strict ParseUint. A value that is not a decimal integer
/// fitting T prints an error naming the flag and returns false.
template <typename T>
bool ParseCount(const char* arg, const std::string& value, T* out) {
  uint64_t parsed = 0;
  Status st = server::ParseUint(value, &parsed);
  if (st.ok() && parsed > std::numeric_limits<T>::max())
    st = Status::InvalidArgument("number out of range: " + value);
  if (!st.ok()) {
    std::fprintf(stderr, "%.*s: %s\n", int(std::strcspn(arg, "=")), arg,
                 st.message().c_str());
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

}  // namespace pmjoin

#endif  // PMJOIN_TOOLS_FLAGS_H_
