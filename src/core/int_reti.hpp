// int-reti string recognition (paper §V-A, Definition 3).
//
// An int-reti string is the lifecycle subsequence collected during one
// interrupt handler run: it starts with int(n), ends with the matching
// reti, may contain postTask items and nested int-reti strings (handler
// preemption), and must NOT contain runTask items (a handler cannot be
// preempted by a task). Formally, the grammar G:
//
//     S -> int(n) R reti
//     R -> P | P S R
//     P -> postTask P | epsilon
//
// G is context-free and recognized by a pushdown automaton; since int/reti
// nest, no proper prefix of an int-reti string is itself in the grammar, so
// a left-to-right scan with a depth counter finds the unique matching reti.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "trace/lifecycle.hpp"
#include "util/assert.hpp"

namespace sent::core {

/// Thrown when a lifecycle sequence violates the concurrency model (e.g. a
/// runTask inside a handler, or a reti with no open handler). Indicates a
/// corrupt trace, not a user error.
class MalformedTrace : public util::AssertionError {
 public:
  using util::AssertionError::AssertionError;
};

struct IntRetiString {
  std::size_t start;  ///< index of the opening int(n) item
  std::size_t end;    ///< index of the matching reti item
};

/// Match the int-reti string opening at `start` (which must be an Int
/// item). Returns nullopt when the trace ends before the handler exits
/// (truncated recording). Throws MalformedTrace on grammar violations.
std::optional<IntRetiString> match_int_reti(
    std::span<const trace::LifecycleItem> seq, std::size_t start);

/// Whole-sequence validation: every reti closes an int, every int is
/// eventually closed (unless the trace is truncated), no runTask occurs
/// inside a handler. Returns the number of unclosed handlers at the end.
std::size_t validate_lifecycle(std::span<const trace::LifecycleItem> seq);

}  // namespace sent::core
