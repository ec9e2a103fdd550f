#include "mcu/program.hpp"

#include <utility>

#include "util/assert.hpp"

namespace sent::mcu {

namespace {

/// Branch ops whose label lands at (or past) the end of the code object are
/// rewritten to their return counterpart at build time, so the dispatch
/// loop never range-checks a taken branch.
Op ret_variant(Op op) {
  switch (op) {
    case Op::kJump: return Op::kRet;
    case Op::kBranchIfHost: return Op::kRetIfHost;
    case Op::kBranchIfFlag: return Op::kRetIfFlag;
    case Op::kBranchIfU32Eq: return Op::kRetIfU32Eq;
    case Op::kBranchIfU32Ne: return Op::kRetIfU32Ne;
    case Op::kBranchIfU32Lt: return Op::kRetIfU32Lt;
    case Op::kBranchIfU32Ge: return Op::kRetIfU32Ge;
    case Op::kBranchIfU16Eq: return Op::kRetIfU16Eq;
    case Op::kBranchIfU16Ne: return Op::kRetIfU16Ne;
    case Op::kBranchIfU32GeMem: return Op::kRetIfU32GeMem;
    default: return op;
  }
}

template <typename Vec, typename T>
Word pool_add(Vec& vec, T&& value) {
  vec.push_back(std::forward<T>(value));
  return static_cast<Word>(vec.size() - 1);
}

}  // namespace

// ---- Program --------------------------------------------------------------

CodeId Program::add(CodeObject code, std::vector<std::string> instr_names) {
  SENT_REQUIRE_MSG(!names_.contains(code.name),
                   "duplicate code object name: " << code.name);
  SENT_REQUIRE_MSG(!code.words.empty(),
                   "code object " << code.name << " has no instructions");
  SENT_ASSERT(code.words.size() % kInstrWords == 0);
  SENT_ASSERT(instr_names.size() == code.instr_count());
  CodeId id = static_cast<CodeId>(codes_.size());
  const std::size_t n = code.instr_count();
  for (std::size_t i = 0; i < n; ++i) {
    const auto gid = static_cast<trace::InstrId>(instr_table_.size());
    Word* w = code.words.data() + i * kInstrWords;
    w[2] = gid;
    instr_table_.push_back({code.name, std::move(instr_names[i]), w[1]});
  }
  names_.insert(code.name);
  codes_.push_back(std::move(code));
  return id;
}

// ---- CodeBuilder ----------------------------------------------------------

CodeBuilder::CodeBuilder(std::string name, bool is_task)
    : name_(std::move(name)), is_task_(is_task) {}

CodeBuilder::Draft& CodeBuilder::push(std::string name, std::uint32_t cost,
                                      Op op) {
  Draft d;
  d.name = std::move(name);
  d.cost = cost;
  d.op = op;
  drafts_.push_back(std::move(d));
  return drafts_.back();
}

CodeBuilder& CodeBuilder::instr(std::string name, std::function<void()> fn,
                                std::uint32_t cost) {
  SENT_REQUIRE(fn != nullptr);
  push(std::move(name), cost, Op::kHostAction).action = std::move(fn);
  return *this;
}

CodeBuilder& CodeBuilder::branch_if(std::string name,
                                    std::function<bool()> pred,
                                    std::string label, std::uint32_t cost) {
  SENT_REQUIRE(pred != nullptr);
  Draft& d = push(std::move(name), cost, Op::kBranchIfHost);
  d.pred = std::move(pred);
  d.label = std::move(label);
  return *this;
}

CodeBuilder& CodeBuilder::jump(std::string name, std::string label,
                               std::uint32_t cost) {
  push(std::move(name), cost, Op::kJump).label = std::move(label);
  return *this;
}

CodeBuilder& CodeBuilder::ret(std::string name, std::uint32_t cost) {
  push(std::move(name), cost, Op::kRet);
  return *this;
}

CodeBuilder& CodeBuilder::ret_if(std::string name, std::function<bool()> pred,
                                 std::uint32_t cost) {
  SENT_REQUIRE(pred != nullptr);
  push(std::move(name), cost, Op::kRetIfHost).pred = std::move(pred);
  return *this;
}

CodeBuilder& CodeBuilder::set_flag(std::string name, bool& flag, bool value,
                                   std::uint32_t cost) {
  Draft& d = push(std::move(name), cost, Op::kSetFlag);
  d.flag = &flag;
  d.imm = value ? 1 : 0;
  return *this;
}

CodeBuilder& CodeBuilder::add_u32(std::string name, std::uint32_t& var,
                                  std::uint32_t delta, std::uint32_t cost) {
  Draft& d = push(std::move(name), cost, Op::kAddU32);
  d.u32 = &var;
  d.imm = delta;
  return *this;
}

CodeBuilder& CodeBuilder::set_u32(std::string name, std::uint32_t& var,
                                  std::uint32_t value, std::uint32_t cost) {
  Draft& d = push(std::move(name), cost, Op::kSetU32);
  d.u32 = &var;
  d.imm = value;
  return *this;
}

CodeBuilder& CodeBuilder::add_u16(std::string name, std::uint16_t& var,
                                  std::uint16_t delta, std::uint32_t cost) {
  Draft& d = push(std::move(name), cost, Op::kAddU16);
  d.u16 = &var;
  d.imm = delta;
  return *this;
}

CodeBuilder& CodeBuilder::mov_u16(std::string name, std::uint16_t& dst,
                                  std::uint16_t& src, std::uint32_t cost) {
  Draft& d = push(std::move(name), cost, Op::kMovU16);
  d.u16 = &dst;
  d.u16b = &src;
  return *this;
}

CodeBuilder& CodeBuilder::clear_lsb_u16(std::string name, std::uint16_t& var,
                                        std::uint32_t cost) {
  push(std::move(name), cost, Op::kClearLsbU16).u16 = &var;
  return *this;
}

CodeBuilder& CodeBuilder::branch_if_flag(std::string name, bool& flag,
                                         bool when, std::string label,
                                         std::uint32_t cost) {
  Draft& d = push(std::move(name), cost, Op::kBranchIfFlag);
  d.flag = &flag;
  d.imm = when ? 1 : 0;
  d.label = std::move(label);
  return *this;
}

CodeBuilder& CodeBuilder::ret_if_flag(std::string name, bool& flag, bool when,
                                      std::uint32_t cost) {
  Draft& d = push(std::move(name), cost, Op::kRetIfFlag);
  d.flag = &flag;
  d.imm = when ? 1 : 0;
  return *this;
}

namespace {

Op branch_op_u32(Cmp cmp) {
  switch (cmp) {
    case Cmp::Eq: return Op::kBranchIfU32Eq;
    case Cmp::Ne: return Op::kBranchIfU32Ne;
    case Cmp::Lt: return Op::kBranchIfU32Lt;
    case Cmp::Ge: return Op::kBranchIfU32Ge;
  }
  return Op::kBranchIfU32Eq;
}

Op ret_op_u32(Cmp cmp) {
  switch (cmp) {
    case Cmp::Eq: return Op::kRetIfU32Eq;
    case Cmp::Ne: return Op::kRetIfU32Ne;
    case Cmp::Lt: return Op::kRetIfU32Lt;
    case Cmp::Ge: return Op::kRetIfU32Ge;
  }
  return Op::kRetIfU32Eq;
}

}  // namespace

CodeBuilder& CodeBuilder::branch_if_u32(std::string name, std::uint32_t& var,
                                        Cmp cmp, std::uint32_t imm,
                                        std::string label,
                                        std::uint32_t cost) {
  Draft& d = push(std::move(name), cost, branch_op_u32(cmp));
  d.u32 = &var;
  d.imm = imm;
  d.label = std::move(label);
  return *this;
}

CodeBuilder& CodeBuilder::ret_if_u32(std::string name, std::uint32_t& var,
                                     Cmp cmp, std::uint32_t imm,
                                     std::uint32_t cost) {
  Draft& d = push(std::move(name), cost, ret_op_u32(cmp));
  d.u32 = &var;
  d.imm = imm;
  return *this;
}

CodeBuilder& CodeBuilder::branch_if_u16(std::string name, std::uint16_t& var,
                                        Cmp cmp, std::uint16_t imm,
                                        std::string label,
                                        std::uint32_t cost) {
  SENT_REQUIRE_MSG(cmp == Cmp::Eq || cmp == Cmp::Ne,
                   "u16 compares support Eq/Ne only");
  Draft& d = push(std::move(name), cost,
                  cmp == Cmp::Eq ? Op::kBranchIfU16Eq : Op::kBranchIfU16Ne);
  d.u16 = &var;
  d.imm = imm;
  d.label = std::move(label);
  return *this;
}

CodeBuilder& CodeBuilder::branch_if_u32_ge(std::string name,
                                           std::uint32_t& lhs,
                                           std::uint32_t& rhs,
                                           std::string label,
                                           std::uint32_t cost) {
  Draft& d = push(std::move(name), cost, Op::kBranchIfU32GeMem);
  d.u32 = &lhs;
  d.u32b = &rhs;
  d.label = std::move(label);
  return *this;
}

CodeBuilder& CodeBuilder::label(std::string label) {
  SENT_REQUIRE_MSG(!labels_.count(label), "duplicate label " << label);
  labels_[std::move(label)] = static_cast<std::uint32_t>(drafts_.size());
  return *this;
}

std::uint32_t CodeBuilder::resolve_target(const Draft& d) const {
  auto it = labels_.find(d.label);
  SENT_REQUIRE_MSG(it != labels_.end(),
                   "undefined label " << d.label << " in " << name_);
  return it->second;
}

void CodeBuilder::emit_bytecode(CodeObject& code) {
  const std::size_t n = drafts_.size();
  code.words.reserve(n * kInstrWords);
  for (Draft& d : drafts_) {
    Op op = d.op;
    Word a = 0;
    Word b = 0;
    Word t = 0;
    if (!d.label.empty()) {
      const std::uint32_t target = resolve_target(d);
      if (target >= n) {
        // A label at the very end of the object means "branch to return".
        op = ret_variant(op);
      } else {
        t = target * kInstrWords;
      }
    }
    switch (op) {
      case Op::kHostAction:
        a = pool_add(code.actions, std::move(d.action));
        break;
      case Op::kBranchIfHost:
      case Op::kRetIfHost:
        a = pool_add(code.preds, std::move(d.pred));
        break;
      case Op::kJump:
      case Op::kRet:
        break;
      case Op::kSetFlag:
      case Op::kBranchIfFlag:
      case Op::kRetIfFlag:
        a = pool_add(code.flags, d.flag);
        b = d.imm;
        break;
      case Op::kAddU32:
      case Op::kSetU32:
      case Op::kBranchIfU32Eq:
      case Op::kBranchIfU32Ne:
      case Op::kBranchIfU32Lt:
      case Op::kBranchIfU32Ge:
      case Op::kRetIfU32Eq:
      case Op::kRetIfU32Ne:
      case Op::kRetIfU32Lt:
      case Op::kRetIfU32Ge:
        a = pool_add(code.u32s, d.u32);
        b = d.imm;
        break;
      case Op::kAddU16:
      case Op::kClearLsbU16:
      case Op::kBranchIfU16Eq:
      case Op::kBranchIfU16Ne:
      case Op::kRetIfU16Eq:
      case Op::kRetIfU16Ne:
        a = pool_add(code.u16s, d.u16);
        b = d.imm;
        break;
      case Op::kMovU16:
        a = pool_add(code.u16s, d.u16);
        b = pool_add(code.u16s, d.u16b);
        break;
      case Op::kBranchIfU32GeMem:
      case Op::kRetIfU32GeMem:
        a = pool_add(code.u32s, d.u32);
        b = pool_add(code.u32s, d.u32b);
        break;
    }
    code.words.push_back(static_cast<Word>(op));
    code.words.push_back(d.cost);
    code.words.push_back(0);  // global_id, patched in Program::add
    code.words.push_back(a);
    code.words.push_back(b);
    code.words.push_back(t);
  }
}

CodeId CodeBuilder::build(Program& program) {
  SENT_REQUIRE_MSG(!built_, "CodeBuilder::build called twice");
  built_ = true;
  CodeObject code;
  code.name = name_;  // keep name_ for resolve_target error messages
  code.is_task = is_task_;
  emit_bytecode(code);
  std::vector<std::string> names;
  names.reserve(drafts_.size());
  for (Draft& d : drafts_) names.push_back(std::move(d.name));
  return program.add(std::move(code), std::move(names));
}

}  // namespace sent::mcu
