#include "core/int_reti.hpp"

#include <sstream>

namespace sent::core {

using trace::LifecycleItem;
using trace::LifecycleKind;

namespace {
[[noreturn]] void malformed(const char* what, std::size_t index) {
  std::ostringstream os;
  os << "malformed lifecycle sequence: " << what << " at item " << index;
  throw MalformedTrace(os.str());
}
}  // namespace

std::optional<IntRetiString> match_int_reti(
    std::span<const LifecycleItem> seq, std::size_t start) {
  SENT_REQUIRE(start < seq.size());
  SENT_REQUIRE_MSG(seq[start].kind == LifecycleKind::Int,
                   "match_int_reti must start at an int(n) item");
  // Pushdown recognition: the stack alphabet is just open-int markers, so
  // a depth counter suffices.
  std::size_t depth = 0;
  for (std::size_t i = start; i < seq.size(); ++i) {
    switch (seq[i].kind) {
      case LifecycleKind::Int:
        ++depth;
        break;
      case LifecycleKind::Reti:
        if (depth == 0) malformed("reti with no open handler", i);
        --depth;
        if (depth == 0) return IntRetiString{start, i};
        break;
      case LifecycleKind::RunTask:
        // Rule 2: tasks never run while a handler is active.
        malformed("runTask inside an int-reti string", i);
      case LifecycleKind::PostTask:
        break;
    }
  }
  return std::nullopt;  // truncated: handler still open at end of trace
}

std::size_t validate_lifecycle(std::span<const LifecycleItem> seq) {
  std::size_t depth = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    switch (seq[i].kind) {
      case LifecycleKind::Int:
        ++depth;
        break;
      case LifecycleKind::Reti:
        if (depth == 0) malformed("reti with no open handler", i);
        --depth;
        break;
      case LifecycleKind::RunTask:
        if (depth > 0) malformed("runTask inside an int-reti string", i);
        break;
      case LifecycleKind::PostTask:
        break;
    }
  }
  return depth;
}

}  // namespace sent::core
