// Program representation for the virtual MCU.
//
// Applications (and the OS/protocol code they link against) are expressed
// as *code objects* — interrupt handlers and tasks — each a sequence of
// virtual instructions. A virtual instruction models a short straight-line
// basic block of machine code: it has a static identity (a global index in
// the node program, per Definition 4 of the paper), a cycle cost, and a
// behaviour. The machine executes instructions one at a time and delivers
// interrupts only between instructions, which is exactly the granularity at
// which the paper's transient interleavings occur.
//
// Behaviour is encoded as compact bytecode (DESIGN.md §12): each
// instruction is a fixed kInstrWords-word record executed by a tight switch
// in Machine::step. Common behaviours — flag tests, counter bumps, field
// compares — are dedicated typed ops that read and write application state
// through operand pools of raw pointers; arbitrary C++ closures survive
// behind the host-call ops (Op::kHostAction and friends), which is what
// CodeBuilder's generic instr/branch_if/ret_if lower to.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "trace/recorder.hpp"
#include "util/assert.hpp"

namespace sent::mcu {

/// Identifier of a code object within one Program.
using CodeId = std::uint32_t;

/// Default cycle cost of one virtual instruction (a handful of AVR ops).
inline constexpr std::uint32_t kDefaultInstrCost = 8;

/// One bytecode operand word.
using Word = std::uint32_t;

/// Words per instruction record: [op, cost, global_id, a, b, t].
///   op        — Op discriminant
///   cost      — cycles charged per execution
///   global_id — index into the program instruction table (Definition 4)
///   a         — first operand: pool index (host closure or state pointer)
///   b         — second operand: immediate, or a second pointer-pool index
///   t         — branch target, as a *word* offset into the code object
inline constexpr std::uint32_t kInstrWords = 6;

/// Bytecode operations. Branch ops whose label resolves to the end of the
/// code object are rewritten to their kRetIf* counterpart at build time, so
/// the dispatch loop never range-checks targets.
enum class Op : Word {
  // Host-call ops: behaviour lives in a C++ closure.
  kHostAction,    ///< a=actions: void call, fall through
  kBranchIfHost,  ///< a=preds: branch to t when pred() is true
  kRetIfHost,     ///< a=preds: return when pred() is true

  // Control flow with no behaviour attached.
  kJump,  ///< unconditional branch to t
  kRet,   ///< return from the code object

  // Typed state ops: operands are pointers into application state.
  kSetFlag,       ///< *flags[a] = (b != 0)
  kBranchIfFlag,  ///< branch to t when *flags[a] == (b != 0)
  kRetIfFlag,     ///< return when *flags[a] == (b != 0)

  kAddU32,       ///< *u32s[a] += b (wrapping; b=0xffffffff decrements)
  kSetU32,       ///< *u32s[a] = b
  kAddU16,       ///< *u16s[a] += b (truncating; b=0xffff decrements)
  kMovU16,       ///< *u16s[a] = *u16s[b] (register-to-register copy)
  kClearLsbU16,  ///< *u16s[a] &= *u16s[a] - 1 (Kernighan popcount step)

  kBranchIfU32Eq,  ///< branch to t when *u32s[a] == b
  kBranchIfU32Ne,  ///< branch to t when *u32s[a] != b
  kBranchIfU32Lt,  ///< branch to t when *u32s[a] <  b
  kBranchIfU32Ge,  ///< branch to t when *u32s[a] >= b
  kRetIfU32Eq,     ///< return when *u32s[a] == b
  kRetIfU32Ne,     ///< return when *u32s[a] != b
  kRetIfU32Lt,     ///< return when *u32s[a] <  b
  kRetIfU32Ge,     ///< return when *u32s[a] >= b

  kBranchIfU16Eq,  ///< branch to t when *u16s[a] == b
  kBranchIfU16Ne,  ///< branch to t when *u16s[a] != b
  kRetIfU16Eq,     ///< return when *u16s[a] == b
  kRetIfU16Ne,     ///< return when *u16s[a] != b

  kBranchIfU32GeMem,  ///< branch to t when *u32s[a] >= *u32s[b]
  kRetIfU32GeMem,     ///< return when *u32s[a] >= *u32s[b]
};

struct CodeObject {
  std::string name;      ///< e.g. "Read.readDone" or "prepareAndSendPacket"
  bool is_task = false;  ///< task (posted/run) vs interrupt handler

  /// Bytecode, kInstrWords words per instruction.
  std::vector<Word> words;

  // Operand pools, indexed by the a/b words.
  std::vector<std::function<void()>> actions;
  std::vector<std::function<bool()>> preds;
  std::vector<bool*> flags;
  std::vector<std::uint32_t*> u32s;
  std::vector<std::uint16_t*> u16s;

  std::size_t instr_count() const { return words.size() / kInstrWords; }
};

/// A node's complete program: all code objects plus the flat static
/// instruction table that instruction counters are indexed by.
class Program {
 public:
  /// Register a code object; assigns global ids to its instructions.
  /// `instr_names` are the per-instruction mnemonics, moved into the
  /// instruction table (one entry per record in code.words).
  CodeId add(CodeObject code, std::vector<std::string> instr_names);

  /// Inline: resolved once per machine step in the dispatch loop.
  const CodeObject& code(CodeId id) const {
    SENT_ASSERT(id < codes_.size());
    return codes_[id];
  }
  std::size_t code_count() const { return codes_.size(); }

  /// Total number of static instructions (the N of Definition 4).
  std::size_t instr_count() const { return instr_table_.size(); }

  /// Instruction metadata table, for traces and reports.
  const std::vector<trace::InstrMeta>& instr_table() const {
    return instr_table_;
  }

 private:
  std::vector<CodeObject> codes_;
  std::vector<trace::InstrMeta> instr_table_;
  std::unordered_set<std::string> names_;  ///< code object names are unique
};

/// Comparison selector for the typed compare/branch builder ops.
enum class Cmp : std::uint8_t { Eq, Ne, Lt, Ge };

/// Fluent builder for code objects, with labels and structured branches so
/// application logic can take different paths (and thus produce different
/// instruction counts, which is what the featurizer keys on).
///
/// The generic instr/branch_if/ret_if overloads accept arbitrary closures
/// and lower to host-call ops; the typed overloads (set_flag, add_u32,
/// branch_if_u32, ...) lower to dedicated bytecode ops that cost no
/// indirect call at run time. Both families record identical trace
/// metadata, so swapping one for the other never changes a trace.
class CodeBuilder {
 public:
  CodeBuilder(std::string name, bool is_task);

  /// Straight-line instruction with arbitrary behaviour.
  CodeBuilder& instr(std::string name, std::function<void()> fn,
                     std::uint32_t cost = kDefaultInstrCost);

  /// Conditional branch: jumps to `label` when pred() is true, otherwise
  /// falls through.
  CodeBuilder& branch_if(std::string name, std::function<bool()> pred,
                         std::string label,
                         std::uint32_t cost = kDefaultInstrCost);

  /// Unconditional jump to `label`.
  CodeBuilder& jump(std::string name, std::string label,
                    std::uint32_t cost = kDefaultInstrCost);

  /// Early return from the code object.
  CodeBuilder& ret(std::string name, std::uint32_t cost = kDefaultInstrCost);

  /// Conditional early return: returns when pred() is true.
  CodeBuilder& ret_if(std::string name, std::function<bool()> pred,
                      std::uint32_t cost = kDefaultInstrCost);

  // -- typed ops ----------------------------------------------------------
  // All take references to application state that must outlive the built
  // program (in practice: members of the app object that owns the node).

  CodeBuilder& set_flag(std::string name, bool& flag, bool value,
                        std::uint32_t cost = kDefaultInstrCost);
  CodeBuilder& add_u32(std::string name, std::uint32_t& var,
                       std::uint32_t delta,
                       std::uint32_t cost = kDefaultInstrCost);
  CodeBuilder& set_u32(std::string name, std::uint32_t& var,
                       std::uint32_t value,
                       std::uint32_t cost = kDefaultInstrCost);
  /// var += delta, truncating to 16 bits (delta=0xffff decrements).
  CodeBuilder& add_u16(std::string name, std::uint16_t& var,
                       std::uint16_t delta,
                       std::uint32_t cost = kDefaultInstrCost);
  /// dst = src (both u16 application state).
  CodeBuilder& mov_u16(std::string name, std::uint16_t& dst,
                       std::uint16_t& src,
                       std::uint32_t cost = kDefaultInstrCost);
  /// var &= var - 1: clears the lowest set bit (bit-count loops).
  CodeBuilder& clear_lsb_u16(std::string name, std::uint16_t& var,
                             std::uint32_t cost = kDefaultInstrCost);

  CodeBuilder& branch_if_flag(std::string name, bool& flag, bool when,
                              std::string label,
                              std::uint32_t cost = kDefaultInstrCost);
  CodeBuilder& ret_if_flag(std::string name, bool& flag, bool when,
                           std::uint32_t cost = kDefaultInstrCost);

  CodeBuilder& branch_if_u32(std::string name, std::uint32_t& var, Cmp cmp,
                             std::uint32_t imm, std::string label,
                             std::uint32_t cost = kDefaultInstrCost);
  CodeBuilder& ret_if_u32(std::string name, std::uint32_t& var, Cmp cmp,
                          std::uint32_t imm,
                          std::uint32_t cost = kDefaultInstrCost);

  /// Only Cmp::Eq / Cmp::Ne are meaningful for u16 operands.
  CodeBuilder& branch_if_u16(std::string name, std::uint16_t& var, Cmp cmp,
                             std::uint16_t imm, std::string label,
                             std::uint32_t cost = kDefaultInstrCost);

  /// Branch when lhs >= rhs, both read from memory (loop bounds that are
  /// only known at run time, e.g. payload sizes).
  CodeBuilder& branch_if_u32_ge(std::string name, std::uint32_t& lhs,
                                std::uint32_t& rhs, std::string label,
                                std::uint32_t cost = kDefaultInstrCost);

  /// Bind `label` to the position of the next instruction. A label may be
  /// referenced before or after its definition.
  CodeBuilder& label(std::string label);

  /// Resolve labels, emit bytecode and register with the program. The
  /// builder is consumed.
  CodeId build(Program& program);

 private:
  /// Builder-side IR: one record per instruction, everything moved in once
  /// and moved out again at build() — names and closures are never copied.
  struct Draft {
    std::string name;
    std::uint32_t cost = kDefaultInstrCost;
    Op op = Op::kRet;
    std::string label;  ///< branch/jump target; empty if none

    std::function<void()> action;  // kHostAction
    std::function<bool()> pred;    // kBranchIfHost / kRetIfHost

    bool* flag = nullptr;
    std::uint32_t* u32 = nullptr;
    std::uint32_t* u32b = nullptr;  // second operand (mem-mem compare)
    std::uint16_t* u16 = nullptr;
    std::uint16_t* u16b = nullptr;  // second operand (u16 reg-reg move)
    Word imm = 0;
  };

  Draft& push(std::string name, std::uint32_t cost, Op op);
  void emit_bytecode(CodeObject& code);
  /// Resolved target instruction index for draft i, or instr count when
  /// the draft is not a branch. Throws on undefined labels.
  std::uint32_t resolve_target(const Draft& d) const;

  std::string name_;
  bool is_task_;
  std::vector<Draft> drafts_;
  std::map<std::string, std::uint32_t, std::less<>> labels_;
  bool built_ = false;
};

}  // namespace sent::mcu
