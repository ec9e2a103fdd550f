#include "trace/serialize.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <vector>

#include "util/assert.hpp"

namespace sent::trace {

namespace {

constexpr std::string_view kMagic = "SENTOMIST-TRACE v";

const std::string& header() {
  static const std::string line =
      std::string(kMagic) + std::to_string(kTraceFormatVersion);
  return line;
}

char kind_code(LifecycleKind kind) {
  switch (kind) {
    case LifecycleKind::PostTask: return 'P';
    case LifecycleKind::RunTask: return 'R';
    case LifecycleKind::Int: return 'I';
    case LifecycleKind::Reti: return 'X';
  }
  return '?';
}

// The inverse of kind_code; false for any other byte.
bool kind_from_code(char code, LifecycleKind& kind) {
  switch (code) {
    case 'P': kind = LifecycleKind::PostTask; return true;
    case 'R': kind = LifecycleKind::RunTask; return true;
    case 'I': kind = LifecycleKind::Int; return true;
    case 'X': kind = LifecycleKind::Reti; return true;
  }
  return false;
}

constexpr std::size_t kMaxDigits = 20;  // 2^64-1 in decimal

// Widest numeric rows: kind, cycle, arg and end cycle; delta and id.
constexpr std::size_t kMaxLifecycleRow = 2 + 3 * (kMaxDigits + 1);
constexpr std::size_t kMaxInstrRow = 2 * (kMaxDigits + 1);

// Decimal digits of v written at p; returns one past the last digit.
char* put_u64(char* p, std::uint64_t v) {
  return std::to_chars(p, p + kMaxDigits, v).ptr;
}

void put_u64(std::string& out, std::uint64_t v) {
  char digits[kMaxDigits];
  out.append(digits, put_u64(digits, v));
}

void put_section(std::string& out, std::string_view name, std::uint64_t rows) {
  out.append(name);
  out.push_back(' ');
  put_u64(out, rows);
  out.push_back('\n');
}

// Append one numeric row per element, each at most `widest` bytes, written
// by format(p, row) -> end straight into out's storage: one resize per
// section instead of an append per field.
template <typename Row, typename Format>
void put_rows(std::string& out, const std::vector<Row>& rows,
              std::size_t widest, Format format) {
  const std::size_t start = out.size();
  out.resize(start + rows.size() * widest);
  char* p = out.data() + start;
  for (const Row& row : rows) p = format(p, row);
  out.resize(static_cast<std::size_t>(p - out.data()));
}

// A row split at its tabs. Names may contain spaces but never tabs
// (CodeBuilder mnemonics are identifiers in practice). Only the first
// kMax fields are kept; `count` is the row's full arity.
struct Fields {
  static constexpr std::size_t kMax = 4;
  std::array<std::string_view, kMax> field;
  std::size_t count = 0;

  std::string_view operator[](std::size_t i) const { return field[i]; }
};

Fields split_row(std::string_view line) {
  Fields out;
  for (;;) {
    const std::size_t tab = line.find('\t');
    if (out.count < Fields::kMax) out.field[out.count] = line.substr(0, tab);
    ++out.count;
    if (tab == std::string_view::npos) return out;
    line.remove_prefix(tab + 1);
  }
}

// Incremental parser over the whole text: fills `trace` record by record
// so that when a throw interrupts it, everything already parsed is a
// usable prefix (the lenient loader relies on this). Tracks the 1-based
// line number for error messages.
class Parser {
 public:
  explicit Parser(std::string_view text) : rest_(text) {}

  std::size_t line_no() const { return line_no_; }

  void parse(NodeTrace& trace) {
    if (const std::string_view line = read_line("header"); line != header())
      malformed("bad header: " + std::string(line));

    trace.node_id = static_cast<std::uint32_t>(expect_section("node"));
    trace.run_end = expect_section("run_end");

    const std::uint64_t n_table = expect_section("instr_table");
    reserve_rows(trace.instr_table, n_table);
    for (std::uint64_t i = 0; i < n_table; ++i) {
      const Fields f = split_row(read_line("instr_table"));
      if (f.count != 3) malformed("instr_table row arity");
      trace.instr_table.push_back(
          {std::string(f[0]), std::string(f[1]),
           static_cast<std::uint32_t>(to_u64(f[2], "instr cycles"))});
    }

    const std::uint64_t n_items = expect_section("lifecycle");
    reserve_rows(trace.lifecycle, n_items);
    for (std::uint64_t i = 0; i < n_items; ++i)
      trace.lifecycle.push_back(lifecycle_row());

    const std::uint64_t n_instrs = expect_section("instrs");
    reserve_rows(trace.instrs, n_instrs);
    sim::Cycle prev = 0;
    for (std::uint64_t i = 0; i < n_instrs; ++i) {
      std::uint64_t row[2] = {};  // cycle delta, instruction id
      if (!numeric_row(0, row)) {
        const Fields f = split_row(read_line("instrs"));
        if (f.count != 2) malformed("instr row arity");
        row[0] = to_u64(f[0], "instr delta");
        row[1] = to_u64(f[1], "instr id");
      }
      prev += row[0];
      const auto id = static_cast<InstrId>(row[1]);
      if (!trace.instr_table.empty() && id >= trace.instr_table.size())
        malformed("instruction id out of table range");
      trace.instrs.push_back({prev, id});
    }

    const std::uint64_t n_bugs = expect_section("bugs");
    reserve_rows(trace.bugs, n_bugs);
    for (std::uint64_t i = 0; i < n_bugs; ++i) {
      const Fields f = split_row(read_line("bugs"));
      if (f.count != 2) malformed("bug row arity");
      trace.bugs.push_back({to_u64(f[0], "bug cycle"), std::string(f[1])});
    }

    if (read_line("trailer") != "end") malformed("missing end marker");
  }

 private:
  std::string_view rest_;  ///< text not yet consumed
  std::size_t line_no_ = 0;

  // Fast path for a well-formed row: `skip` bytes, then out.size()
  // tab-separated numbers ending at a newline or at the end of the text.
  // Parses and consumes the row in one pass. Any other row is left
  // unconsumed (false) for the general path, which reports exactly what is
  // wrong with it.
  bool numeric_row(std::size_t skip, std::span<std::uint64_t> out) {
    const char* const begin = rest_.data();
    const char* const end = begin + rest_.size();
    const char* p = begin + skip;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const bool last = i + 1 == out.size();
      const auto [stop, ec] = std::from_chars(p, end, out[i]);
      if (ec != std::errc{} ||
          (stop == end ? !last : *stop != (last ? '\n' : '\t')))
        return false;
      p = stop == end ? end : stop + 1;
    }
    ++line_no_;
    rest_.remove_prefix(static_cast<std::size_t>(p - begin));
    return true;
  }

  LifecycleItem lifecycle_row() {
    LifecycleItem item;
    std::uint64_t row[3] = {};  // cycle, arg, end cycle (runTask only)
    const bool fast =
        rest_.size() > 1 && rest_[1] == '\t' &&
        kind_from_code(rest_[0], item.kind) &&
        numeric_row(2, std::span(row).first(
                           item.kind == LifecycleKind::RunTask ? 3 : 2));
    if (!fast) {
      const Fields f = split_row(read_line("lifecycle"));
      if (f.count < 3 || f[0].size() != 1) malformed("lifecycle row");
      if (!kind_from_code(f[0][0], item.kind))
        malformed("lifecycle kind " + std::string(f[0]));
      row[0] = to_u64(f[1], "lifecycle cycle");
      row[1] = to_u64(f[2], "lifecycle arg");
      if (item.kind == LifecycleKind::RunTask) {
        if (f.count != 4) malformed("runTask row needs end cycle");
        row[2] = to_u64(f[3], "runTask end");
      } else if (f.count != 3) {
        malformed("lifecycle row arity");
      }
    }
    item.cycle = row[0];
    item.arg = static_cast<std::uint32_t>(row[1]);
    if (item.kind == LifecycleKind::RunTask) {
      item.end_cycle = row[2];
      if (item.end_cycle < item.cycle)
        malformed("runTask ends before it starts");
    }
    return item;
  }

  [[noreturn]] void malformed(const std::string& what) const {
    throw MalformedTraceFile("malformed trace file: line " +
                             std::to_string(line_no_) + ": " + what);
  }

  // Lines split at '\n' exactly as std::getline splits them: a final line
  // without its newline still counts, and nothing after the last newline
  // is EOF.
  std::string_view read_line(const char* context) {
    ++line_no_;  // on EOF: the line that should have been there
    if (rest_.empty()) malformed(std::string("EOF in ") + context);
    const std::size_t newline = rest_.find('\n');
    const std::string_view line = rest_.substr(0, newline);
    rest_.remove_prefix(newline == std::string_view::npos ? rest_.size()
                                                          : newline + 1);
    return line;
  }

  // Exactly the unsigned decimal digits save_trace writes: no sign, no
  // whitespace, no value beyond 2^64-1.
  std::uint64_t to_u64(std::string_view s, const char* context) const {
    std::uint64_t v = 0;
    const char* end = s.data() + s.size();
    const auto [stop, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || stop != end)
      malformed(std::string("bad number in ") + context);
    return v;
  }

  std::uint64_t expect_section(const char* name) {
    const std::string_view line = read_line(name);
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos || line.substr(0, space) != name)
      malformed(std::string("expected section ") + name +
                ", got: " + std::string(line));
    return to_u64(line.substr(space + 1), name);
  }

  // Section counts come off untrusted bytes: never reserve more rows than
  // the unread text could hold (every row is at least two bytes), so a
  // hostile count costs nothing before its rows fail to parse.
  template <typename T>
  void reserve_rows(std::vector<T>& rows, std::uint64_t count) const {
    rows.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, rest_.size() / 2)));
  }
};

std::string read_all(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

}  // namespace

void save_trace(const NodeTrace& trace, std::string& out) {
  out.append(header());
  out.push_back('\n');
  put_section(out, "node", trace.node_id);
  put_section(out, "run_end", trace.run_end);

  put_section(out, "instr_table", trace.instr_table.size());
  for (const auto& meta : trace.instr_table) {
    out.append(meta.code_object);
    out.push_back('\t');
    out.append(meta.name);
    out.push_back('\t');
    put_u64(out, meta.cycles);
    out.push_back('\n');
  }

  const auto lifecycle_row = [](char* p, const LifecycleItem& item) {
    *p++ = kind_code(item.kind);
    *p++ = '\t';
    p = put_u64(p, item.cycle);
    *p++ = '\t';
    p = put_u64(p, item.arg);
    if (item.kind == LifecycleKind::RunTask) {
      *p++ = '\t';
      p = put_u64(p, item.end_cycle);
    }
    *p++ = '\n';
    return p;
  };
  put_section(out, "lifecycle", trace.lifecycle.size());
  put_rows(out, trace.lifecycle, kMaxLifecycleRow, lifecycle_row);

  sim::Cycle prev = 0;
  const auto instr_row = [&prev](char* p, const InstrExec& e) {
    p = put_u64(p, e.cycle - prev);
    *p++ = '\t';
    p = put_u64(p, e.instr);
    *p++ = '\n';
    prev = e.cycle;
    return p;
  };
  put_section(out, "instrs", trace.instrs.size());
  put_rows(out, trace.instrs, kMaxInstrRow, instr_row);

  put_section(out, "bugs", trace.bugs.size());
  for (const auto& bug : trace.bugs) {
    put_u64(out, bug.cycle);
    out.push_back('\t');
    out.append(bug.kind);
    out.push_back('\n');
  }

  out.append("end\n");
}

void save_trace(const NodeTrace& trace, std::ostream& out) {
  std::string text;
  save_trace(trace, text);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

NodeTrace load_trace(std::istream& in) {
  const std::string text = read_all(in);
  NodeTrace trace;
  Parser(text).parse(trace);
  return trace;
}

LenientLoadResult load_trace_lenient(std::string_view text,
                                     NodeTrace recycled) {
  LenientLoadResult result;
  result.trace = std::move(recycled);
  result.trace.clear_keep_capacity();
  Parser parser(text);
  try {
    parser.parse(result.trace);
  } catch (const MalformedTraceFile& e) {
    result.complete = false;
    result.error_line = parser.line_no();
    result.error = e.what();
  }
  // Clamp run_end over every surviving record so downstream consumers
  // (anatomizer closes dangling intervals at run_end) never see a record
  // beyond the end of the run. Applied even to files that parsed to the end
  // marker: a corrupted run_end digit yields a "complete" file whose stated
  // run_end understates its own records, and a faithful trace is unchanged.
  sim::Cycle max_cycle = result.trace.run_end;
  for (const auto& item : result.trace.lifecycle)
    max_cycle = std::max({max_cycle, item.cycle, item.end_cycle});
  for (const auto& e : result.trace.instrs)
    max_cycle = std::max(max_cycle, e.cycle);
  for (const auto& bug : result.trace.bugs)
    max_cycle = std::max(max_cycle, bug.cycle);
  result.trace.run_end = max_cycle;
  return result;
}

LenientLoadResult load_trace_lenient(std::istream& in) {
  return load_trace_lenient(read_all(in));
}

void save_trace_file(const NodeTrace& trace, const std::string& path) {
  std::ofstream out(path);
  SENT_REQUIRE_MSG(out.good(), "cannot open " << path << " for writing");
  save_trace(trace, out);
  SENT_REQUIRE_MSG(out.good(), "write to " << path << " failed");
}

NodeTrace load_trace_file(const std::string& path) {
  std::ifstream in(path);
  SENT_REQUIRE_MSG(in.good(), "cannot open " << path);
  return load_trace(in);
}

}  // namespace sent::trace
