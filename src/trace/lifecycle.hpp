// The system lifecycle sequence (paper §V-A).
//
// During a run, the runtime emits exactly four kinds of items — postTask,
// runTask, int(n), reti — each stamped with the virtual cycle at which it
// occurred. The Sentomist anatomizer consumes only this alphabet; the extra
// fields (task ids, completion cycles) are instrumentation metadata used to
// map parsed instances back to wall-clock windows and to validate the
// parser against runtime ground truth in tests.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace sent::trace {

/// Identifier of a registered task (code object of task kind).
using TaskId = std::uint32_t;

/// Hardware interrupt line number; doubles as the "event type" of the
/// paper's event procedures.
using IrqLine = std::uint8_t;

enum class LifecycleKind : std::uint8_t {
  PostTask,  ///< postTask function called
  RunTask,   ///< runTask function called (task starts executing)
  Int,       ///< entry of the interrupt handler for line `irq`
  Reti,      ///< exit of an interrupt handler
};

struct LifecycleItem {
  LifecycleKind kind;
  sim::Cycle cycle = 0;  ///< when the item occurred

  /// PostTask/RunTask: the task id. Int/Reti: the interrupt line.
  std::uint32_t arg = 0;

  /// RunTask only: cycle at which the task ran to completion. Filled by the
  /// recorder when the task finishes; 0 while the task is still running.
  sim::Cycle end_cycle = 0;
};

}  // namespace sent::trace
