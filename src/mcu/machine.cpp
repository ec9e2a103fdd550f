#include "mcu/machine.hpp"

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace sent::mcu {

namespace {

// Registered as one block on first use (DESIGN.md §11).
struct Metrics {
  obs::Counter raises = obs::Registry::global().counter("mcu.irq_raises");
  obs::Counter delivered =
      obs::Registry::global().counter("mcu.interrupts_delivered");
  obs::Counter dropped =
      obs::Registry::global().counter("mcu.interrupts_dropped");

  static const Metrics& get() {
    static Metrics m;
    return m;
  }
};

}  // namespace

Machine::Machine(sim::EventQueue& queue, trace::Recorder& recorder,
                 const Program& program)
    : queue_(queue),
      recorder_(recorder),
      program_(program),
      lane_(queue.open_lane(&Machine::fire_lane, this)) {}

Machine::~Machine() {
  queue_.close_lane(lane_);
  flush_metrics();
}

void Machine::flush_metrics() {
  if (pending_raises_ == 0 && pending_delivered_ == 0 &&
      pending_dropped_ == 0) {
    return;
  }
  const Metrics& m = Metrics::get();
  if (pending_raises_ != 0) m.raises.inc(pending_raises_);
  if (pending_delivered_ != 0) m.delivered.inc(pending_delivered_);
  if (pending_dropped_ != 0) m.dropped.inc(pending_dropped_);
  pending_raises_ = pending_delivered_ = pending_dropped_ = 0;
}

void Machine::set_task_provider(TaskProvider* provider) {
  SENT_REQUIRE(provider != nullptr);
  provider_ = provider;
}

void Machine::register_handler(trace::IrqLine line, CodeId handler) {
  SENT_REQUIRE(line < handlers_.size());
  SENT_REQUIRE_MSG(handlers_[line] == kNoHandler,
                   "line " << int(line) << " already has a handler");
  SENT_REQUIRE_MSG(!program_.code(handler).is_task,
                   "cannot bind a task as an interrupt handler");
  handlers_[line] = handler;
}

void Machine::raise_irq(trace::IrqLine line) {
  SENT_REQUIRE(line < 64);
  SENT_REQUIRE_MSG(handlers_[line] != kNoHandler,
                   "IRQ raised on unbound line " << int(line));
  ++pending_raises_;
  if (irq_drop_hook_ && irq_drop_hook_(line)) {
    ++irqs_dropped_;
    ++pending_dropped_;
    return;
  }
  pending_ |= (1ULL << line);
  // If this raise happens from inside an executing instruction, the current
  // step schedules its own continuation and will see the pending bit there.
  if (!step_scheduled_ && !in_step_) schedule_step(cost::kWakeup);
}

void Machine::notify_task_posted() {
  if (!step_scheduled_ && !in_step_) schedule_step(cost::kWakeup);
}

std::vector<trace::IrqLine> Machine::bound_lines() const {
  std::vector<trace::IrqLine> lines;
  for (std::size_t line = 0; line < handlers_.size(); ++line) {
    if (handlers_[line] != kNoHandler)
      lines.push_back(static_cast<trace::IrqLine>(line));
  }
  return lines;
}

void Machine::fire_lane(void* self) {
  auto* machine = static_cast<Machine*>(self);
  machine->step_scheduled_ = false;
  machine->step();
}

void Machine::schedule_step(std::uint32_t delay) {
  SENT_ASSERT(!step_scheduled_);
  step_scheduled_ = true;
  // Continuations and wake-ups alike write (at, seq) into the machine's
  // lane: no slot, no closure, no heap entry. A wake raised from inside a
  // device closure needs no parking either, since the drain fires the lane
  // next exactly when it is first in (at, seq) order (DESIGN.md §12.4).
  queue_.arm_lane(lane_, queue_.now() + delay);
}

int Machine::deliverable_irq() const {
  if (pending_ == 0) return -1;
  bool in_handler = !frames_.empty() && frames_.back().is_handler;
  int ceiling = 64;  // lines strictly below this may be delivered
  if (in_handler) ceiling = frames_.back().line;
  for (int line = 0; line < ceiling; ++line) {
    if (pending_ & (1ULL << line)) return line;
  }
  return -1;
}

/// Bytecode dispatch: one fixed-size record per instruction, executed by a
/// dense switch. Branch targets are pre-resolved word offsets; end-of-object
/// branches were rewritten to kRetIf* at build time, so no taken branch
/// needs a range check here.
///
/// Typed ops (everything past the three host-class ops) touch only plain
/// application state: they cannot schedule or cancel events, raise IRQs or
/// post tasks. So once the event queue grants an
/// InlineAllowance, a run of typed ops executes in this one fused loop —
/// each step still recorded at its exact cycle and still charged against
/// the watchdog budget, but with no queue traffic and no trip through the
/// step ladder in between. The loop falls back to the outer ladder at the
/// first host-class op, frame exit, or allowance boundary.
std::uint32_t Machine::exec_bytecode(Frame& frame, const CodeObject& code) {
  const Word* const words = code.words.data();
  const auto end = static_cast<std::uint32_t>(code.words.size());
  std::uint32_t pc = frame.pc;
  sim::Cycle now = queue_.now();
  std::uint64_t fused = 0;  // steps executed beyond the one we entered with
  // Fuse window, resolved lazily on the first typed continuation: a step
  // at time `at` may run inline iff steps_left > 0 and at <= inline_until.
  bool allow_known = false;
  sim::Cycle inline_until = 0;
  std::uint64_t steps_left = 0;
  // Trace records batch through a stack buffer: appending straight to the
  // recorder would force the vector's size/capacity back through memory on
  // every iteration (the typed stores may alias anything heap-allocated).
  constexpr std::size_t kBuf = 128;
  trace::InstrExec buf[kBuf];
  std::size_t buffered = 0;
  std::vector<trace::InstrExec>& sink = recorder_.instr_sink();
  const auto flush = [&] {
    sink.insert(sink.end(), buf, buf + buffered);
    buffered = 0;
  };

  for (;;) {
    const Word* w = words + pc;
    const Op op = static_cast<Op>(w[0]);
    const Word a = w[3];
    const Word b = w[4];
    std::uint32_t next = pc + kInstrWords;

    if (op <= Op::kRetIfHost) {
      // Host-class op: the closure may schedule events, raise IRQs or post
      // tasks, so settle the fused run's clock and trace before calling it
      // and let the outer ladder take over afterwards. It cannot mutate
      // the frame stack; `frame` and `w` stay valid.
      flush();
      if (fused != 0) queue_.commit_inline(now, fused);
      recorder_.on_instr(now, w[2]);
      switch (op) {
        case Op::kHostAction:
          code.actions[a]();
          break;
        case Op::kBranchIfHost:
          if (code.preds[a]()) next = w[5];
          break;
        default:  // Op::kRetIfHost
          if (code.preds[a]()) next = end;
          break;
      }
      frame.pc = next;
      return w[1];
    }

    if (buffered == kBuf) flush();
    buf[buffered++] = {now, w[2]};
    switch (op) {
      case Op::kJump:
        next = w[5];
        break;
      case Op::kRet:
        next = end;
        break;
      case Op::kSetFlag:
        *code.flags[a] = b != 0;
        break;
      case Op::kBranchIfFlag:
        if (*code.flags[a] == (b != 0)) next = w[5];
        break;
      case Op::kRetIfFlag:
        if (*code.flags[a] == (b != 0)) next = end;
        break;
      case Op::kAddU32:
        *code.u32s[a] += b;
        break;
      case Op::kSetU32:
        *code.u32s[a] = b;
        break;
      case Op::kAddU16: {
        std::uint16_t* p = code.u16s[a];
        *p = static_cast<std::uint16_t>(*p + b);
        break;
      }
      case Op::kMovU16:
        *code.u16s[a] = *code.u16s[b];
        break;
      case Op::kClearLsbU16: {
        std::uint16_t* p = code.u16s[a];
        *p = static_cast<std::uint16_t>(*p & (*p - 1));
        break;
      }
      case Op::kBranchIfU32Eq:
        if (*code.u32s[a] == b) next = w[5];
        break;
      case Op::kBranchIfU32Ne:
        if (*code.u32s[a] != b) next = w[5];
        break;
      case Op::kBranchIfU32Lt:
        if (*code.u32s[a] < b) next = w[5];
        break;
      case Op::kBranchIfU32Ge:
        if (*code.u32s[a] >= b) next = w[5];
        break;
      case Op::kRetIfU32Eq:
        if (*code.u32s[a] == b) next = end;
        break;
      case Op::kRetIfU32Ne:
        if (*code.u32s[a] != b) next = end;
        break;
      case Op::kRetIfU32Lt:
        if (*code.u32s[a] < b) next = end;
        break;
      case Op::kRetIfU32Ge:
        if (*code.u32s[a] >= b) next = end;
        break;
      case Op::kBranchIfU16Eq:
        if (*code.u16s[a] == b) next = w[5];
        break;
      case Op::kBranchIfU16Ne:
        if (*code.u16s[a] != b) next = w[5];
        break;
      case Op::kRetIfU16Eq:
        if (*code.u16s[a] == b) next = end;
        break;
      case Op::kRetIfU16Ne:
        if (*code.u16s[a] != b) next = end;
        break;
      case Op::kBranchIfU32GeMem:
        if (*code.u32s[a] >= *code.u32s[b]) next = w[5];
        break;
      default:  // Op::kRetIfU32GeMem
        if (*code.u32s[a] >= *code.u32s[b]) next = end;
        break;
    }

    const std::uint32_t cost = w[1];
    if (next >= end) {
      // Frame exit: retirement is its own step with recorder + frame-stack
      // effects; hand it to the outer ladder.
      flush();
      if (fused != 0) queue_.commit_inline(now, fused);
      frame.pc = next;
      return cost;
    }
    if (!allow_known) {
      allow_known = true;
      sim::InlineAllowance allow;
      // Strict `<` against the next live event keeps FIFO order at equal
      // timestamps (an already-queued event beats a continuation scheduled
      // now), hence the -1 folded into the single bound below.
      if (queue_.inline_allowance(allow) && allow.next_event != 0) {
        inline_until = std::min(allow.horizon, allow.next_event - 1);
        steps_left = allow.steps;
      }
    }
    const sim::Cycle at = now + cost;
    if (steps_left == 0 || at > inline_until) {
      flush();
      if (fused != 0) queue_.commit_inline(now, fused);
      frame.pc = next;
      return cost;
    }
    --steps_left;
    ++fused;
    now = at;
    pc = next;
  }
}

bool Machine::step_once(std::uint32_t& delay) {
  // 1. Interrupt delivery wins over everything (Rule 2).
  if (int line = deliverable_irq(); line >= 0) {
    pending_ &= ~(1ULL << line);
    ++ints_delivered_;
    ++pending_delivered_;
    recorder_.on_int(queue_.now(), static_cast<trace::IrqLine>(line));
    frames_.push_back(Frame{handlers_[static_cast<std::size_t>(line)], 0,
                            /*is_handler=*/true,
                            static_cast<trace::IrqLine>(line), 0});
    delay = cost::kIntEntry;
    return true;
  }

  // 2. Execute / retire the active frame.
  if (!frames_.empty()) {
    Frame& frame = frames_.back();
    const CodeObject& code = program_.code(frame.code);
    if (frame.pc >= code.words.size()) {
      // Frame retired.
      if (frame.is_handler) {
        recorder_.on_reti(queue_.now(), frame.line);
        frames_.pop_back();
        delay = cost::kReti;
      } else {
        recorder_.on_task_end(frame.run_item_index, queue_.now());
        frames_.pop_back();
        delay = cost::kTaskRet;
      }
      return true;
    }
    delay = exec_bytecode(frame, code);
    return true;
  }

  // 3. No frame: start the next task (Rule 3, FIFO).
  SENT_ASSERT_MSG(provider_ != nullptr, "machine has no task provider");
  if (provider_->has_task()) {
    auto [task, code_id] = provider_->pop_task();
    SENT_ASSERT_MSG(program_.code(code_id).is_task,
                    "task queue yielded a non-task code object");
    std::size_t run_idx = recorder_.on_run_task(queue_.now(), task);
    frames_.push_back(
        Frame{code_id, 0, /*is_handler=*/false, 0, run_idx});
    delay = cost::kRunTask;
    return true;
  }

  // 4. Nothing to do: sleep. A raise_irq / notify_task_posted wakes us.
  return false;
}

void Machine::step() {
  struct StepGuard {
    bool& flag;
    explicit StepGuard(bool& f) : flag(f) { flag = true; }
    ~StepGuard() { flag = false; }
  } guard(in_step_);

  // The continuation chain: while the event queue proves no other event
  // fires at or before this machine's next step, execute it here instead
  // of arming the lane and draining it. Together with the fused typed-op
  // loop this is the simulator's main throughput lever (DESIGN.md §12).
  std::uint32_t delay = 0;
  while (step_once(delay)) {
    if (queue_.try_step_inline(queue_.now() + delay)) continue;
    schedule_step(delay);
    return;
  }
}

}  // namespace sent::mcu
