// The tests' textual notation for lifecycle sequences (paper §V-A).
//
// parse_compact() reads the compact one-line form ("int(5) post(1) run(1)
// reti", cycles auto-assigned 0,1,2,...) that the anatomizer, coverage and
// machine tests write their sequences in; to_compact() renders a sequence
// back to it, and to_string() renders items with their cycles for
// assertion messages.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "trace/lifecycle.hpp"
#include "util/assert.hpp"

namespace sent::trace {

/// Render an item like "int(5)@1234" / "postTask(2)@88".
inline std::string to_string(const LifecycleItem& item) {
  std::ostringstream os;
  switch (item.kind) {
    case LifecycleKind::PostTask:
      os << "postTask(" << item.arg << ")";
      break;
    case LifecycleKind::RunTask:
      os << "runTask(" << item.arg << ")";
      break;
    case LifecycleKind::Int:
      os << "int(" << item.arg << ")";
      break;
    case LifecycleKind::Reti:
      os << "reti(" << item.arg << ")";
      break;
  }
  os << "@" << item.cycle;
  if (item.kind == LifecycleKind::RunTask && item.end_cycle != 0)
    os << "..." << item.end_cycle;
  return os.str();
}

/// Render a whole sequence, one item per line.
inline std::string to_string(const std::vector<LifecycleItem>& seq) {
  std::ostringstream os;
  for (const auto& item : seq) os << to_string(item) << '\n';
  return os.str();
}

namespace notation_detail {

// Reads "name" or "name(arg)" tokens.
struct Token {
  std::string name;
  std::uint32_t arg = 0;
  bool has_arg = false;
};

inline Token parse_token(const std::string& word) {
  Token t;
  auto open = word.find('(');
  if (open == std::string::npos) {
    t.name = word;
    return t;
  }
  auto close = word.find(')', open);
  SENT_REQUIRE_MSG(close != std::string::npos, "unbalanced ( in " << word);
  t.name = word.substr(0, open);
  t.arg = static_cast<std::uint32_t>(
      std::stoul(word.substr(open + 1, close - open - 1)));
  t.has_arg = true;
  return t;
}

}  // namespace notation_detail

/// Parse the compact textual form; cycles are assigned 0,1,2,...
inline std::vector<LifecycleItem> parse_compact(const std::string& text) {
  std::vector<LifecycleItem> seq;
  std::istringstream is(text);
  std::string word;
  sim::Cycle cycle = 0;
  while (is >> word) {
    notation_detail::Token t = notation_detail::parse_token(word);
    LifecycleItem item;
    item.cycle = cycle++;
    if (t.name == "int") {
      SENT_REQUIRE_MSG(t.has_arg, "int token needs a line number");
      item.kind = LifecycleKind::Int;
      item.arg = t.arg;
    } else if (t.name == "reti") {
      item.kind = LifecycleKind::Reti;
      item.arg = t.arg;  // optional; 0 when unspecified
    } else if (t.name == "post" || t.name == "postTask") {
      item.kind = LifecycleKind::PostTask;
      item.arg = t.arg;
    } else if (t.name == "run" || t.name == "runTask") {
      item.kind = LifecycleKind::RunTask;
      item.arg = t.arg;
      item.end_cycle = item.cycle;  // zero-duration in compact form
    } else {
      SENT_REQUIRE_MSG(false, "unknown lifecycle token: " << word);
    }
    seq.push_back(item);
  }
  // In the compact form a task's execution extends until the next runTask
  // or the end of the sequence; approximate end_cycle accordingly so
  // interval end times are usable in tests.
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq[i].kind != LifecycleKind::RunTask) continue;
    sim::Cycle end = seq.back().cycle + 1;
    for (std::size_t j = i + 1; j < seq.size(); ++j) {
      if (seq[j].kind == LifecycleKind::RunTask) {
        end = seq[j].cycle;
        break;
      }
    }
    seq[i].end_cycle = end;
  }
  return seq;
}

/// Render a sequence back to the compact one-line form.
inline std::string to_compact(const std::vector<LifecycleItem>& seq) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : seq) {
    if (!first) os << ' ';
    first = false;
    switch (item.kind) {
      case LifecycleKind::PostTask:
        os << "post(" << item.arg << ")";
        break;
      case LifecycleKind::RunTask:
        os << "run(" << item.arg << ")";
        break;
      case LifecycleKind::Int:
        os << "int(" << item.arg << ")";
        break;
      case LifecycleKind::Reti:
        os << "reti";
        break;
    }
  }
  return os.str();
}

}  // namespace sent::trace
