#include "pipeline/journal.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace sent::pipeline {

namespace {

constexpr const char* kMagic = "sentomist-journal v1";

// ---- field encoding --------------------------------------------------------

/// Backslash-escape so any message stays one tab-separated field on one
/// line. The four escapes cover every byte the format reserves.
std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

bool unescape(const std::string& text, std::string& out) {
  out.clear();
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    if (i + 1 >= text.size()) return false;
    switch (text[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: return false;
    }
  }
  return true;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

/// Strict full-width numeric parse; stoull-style prefix parses would let
/// a corrupted field like "12garbage" slip through.
template <typename T>
bool parse_number(const std::string& field, T& out) {
  if (field.empty()) return false;
  const char* first = field.data();
  const char* last = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

bool parse_hex64(const std::string& field, std::uint64_t& out) {
  if (field.size() != 16) return false;
  const char* first = field.data();
  const char* last = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(first, last, out, 16);
  return ec == std::errc() && ptr == last;
}

bool parse_bool(const std::string& field, bool& out) {
  if (field == "0") { out = false; return true; }
  if (field == "1") { out = true; return true; }
  return false;
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

/// Validate the trailing checksum field: it must be well-formed hex and
/// match FNV-1a over everything before its separating tab.
bool checksum_ok(const std::string& line) {
  const std::size_t last_tab = line.rfind('\t');
  if (last_tab == std::string::npos) return false;
  std::uint64_t stored = 0;
  if (!parse_hex64(line.substr(last_tab + 1), stored)) return false;
  return stored == util::fnv1a64(std::string_view(line).substr(0, last_tab));
}

std::string with_checksum(const std::string& body) {
  return body + "\t" + hex64(util::fnv1a64(body));
}

const char* status_token(RunStatus status) {
  switch (status) {
    case RunStatus::Completed: return "ok";
    case RunStatus::Failed: return "fail";
    case RunStatus::TimedOut: return "timeout";
  }
  return "fail";  // unreachable
}

bool parse_status(const std::string& token, RunStatus& out) {
  if (token == "ok") { out = RunStatus::Completed; return true; }
  if (token == "fail") { out = RunStatus::Failed; return true; }
  if (token == "timeout") { out = RunStatus::TimedOut; return true; }
  return false;
}

bool parse_meta_line(const std::string& line, JournalMeta& meta) {
  if (!checksum_ok(line)) return false;
  std::vector<std::string> f = split_tabs(line);
  if (f.size() != 5 || f[0] != "meta") return false;
  return parse_number(f[1], meta.first_seed) &&
         parse_number(f[2], meta.runs) && parse_number(f[3], meta.k);
}

bool parse_record_line(const std::string& line, JournalRecord& rec) {
  if (!checksum_ok(line)) return false;
  std::vector<std::string> f = split_tabs(line);
  if (f.size() != 10 || f[0] != "run") return false;
  return parse_number(f[1], rec.seed) && parse_status(f[2], rec.status) &&
         parse_bool(f[3], rec.triggered) &&
         parse_number(f[4], rec.first_rank) &&
         parse_bool(f[5], rec.degraded) &&
         parse_number(f[6], rec.attempts) && rec.attempts >= 1 &&
         parse_bool(f[7], rec.quarantined) && unescape(f[8], rec.message);
}

}  // namespace

std::string format_journal_meta(const JournalMeta& meta) {
  std::ostringstream body;
  body << "meta\t" << meta.first_seed << "\t" << meta.runs << "\t" << meta.k;
  return with_checksum(body.str());
}

std::string format_journal_record(const JournalRecord& record) {
  std::ostringstream body;
  body << "run\t" << record.seed << "\t" << status_token(record.status)
       << "\t" << (record.triggered ? 1 : 0) << "\t" << record.first_rank
       << "\t" << (record.degraded ? 1 : 0) << "\t" << record.attempts
       << "\t" << (record.quarantined ? 1 : 0) << "\t"
       << escape(record.message);
  return with_checksum(body.str());
}

JournalRecovery recover_journal(const std::string& path) {
  JournalRecovery result;
  std::ifstream in(path, std::ios::binary);
  if (!in) return result;  // no file (or unreadable): fresh start
  result.file_existed = true;

  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& what) {
    result.truncated = true;
    if (result.error.empty())
      result.error = "line " + std::to_string(line_no) + ": " + what;
  };

  // Header: magic then checksummed meta. A journal whose identity cannot
  // be trusted salvages nothing — resuming "probably this campaign" is
  // worse than re-running it.
  ++line_no;
  if (!std::getline(in, line) || line != kMagic) {
    fail("bad magic (expected \"" + std::string(kMagic) + "\")");
    return result;
  }
  ++line_no;
  if (!std::getline(in, line) || !parse_meta_line(line, result.meta)) {
    fail("bad or torn meta line");
    return result;
  }
  result.header_valid = true;

  // Records: salvage the valid prefix, truncate at the first torn or
  // corrupt line. Everything after it is unreachable by construction —
  // an append-only writer never produces a valid record after a torn one,
  // so a "valid" suffix is evidence of splicing, not of a real outcome.
  while (std::getline(in, line)) {
    ++line_no;
    JournalRecord rec;
    if (!parse_record_line(line, rec)) {
      fail("torn or corrupt record");
      return result;
    }
    result.records.push_back(std::move(rec));
  }
  // A file that ends without a final newline had its last commit torn
  // mid-line... unless the last line still checksummed, in which case only
  // the newline is missing and the record above already survived.
  return result;
}

JournalWriter::JournalWriter(std::string path, JournalMeta meta,
                             std::vector<JournalRecord> recovered)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      meta_(meta),
      records_(std::move(recovered)) {
  SENT_REQUIRE(!path_.empty());
  // Establish the file immediately: creates a fresh journal, or atomically
  // rewrites a recovered one without its corrupt tail.
  commit();
}

void JournalWriter::set_commit_hook(CommitHook hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  hook_ = std::move(hook);
}

void JournalWriter::append(const JournalRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(record);
  ++appended_;
  commit_locked();
}

bool JournalWriter::commit() {
  std::lock_guard<std::mutex> lock(mutex_);
  return commit_locked();
}

std::string JournalWriter::serialize_locked() const {
  std::ostringstream out;
  out << kMagic << "\n" << format_journal_meta(meta_) << "\n";
  for (const JournalRecord& rec : records_) {
    out << format_journal_record(rec) << "\n";
  }
  return out.str();
}

bool JournalWriter::commit_locked() {
  const std::uint64_t commit_index = commit_attempts_++;
  std::string bytes = serialize_locked();
  if (hook_) {
    try {
      hook_(commit_index, bytes);
    } catch (const std::exception&) {
      ++io_errors_;  // injected IO error: durability degrades, nothing else
      return false;
    }
  }
  {
    std::ofstream out(tmp_path_, std::ios::binary | std::ios::trunc);
    if (!out) {
      ++io_errors_;
      return false;
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      ++io_errors_;
      return false;
    }
  }
  // The atomic step: after rename the journal is either entirely the old
  // contents or entirely the new ones. (A short-write fault above still
  // renames — that models a tear the recovery scan must catch, which is
  // the point of injecting it.)
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    ++io_errors_;
    return false;
  }
  ++commits_;
  return true;
}

std::uint64_t JournalWriter::appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

std::uint64_t JournalWriter::commits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return commits_;
}

std::uint64_t JournalWriter::io_errors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return io_errors_;
}

}  // namespace sent::pipeline
