// Durable campaign run journal (DESIGN.md §13).
//
// A 10,000-seed campaign that holds every outcome in memory loses the
// whole campaign to one OOM-kill at seed 9,999. The journal makes a
// campaign crash-safe and independently auditable: one record per seeded
// outcome, appended as the run finishes, so a resumed campaign re-runs
// only the seeds that are missing and reconstructs CampaignStats
// bit-identical to an uninterrupted run.
//
// Format (versioned, line-oriented, greppable like the trace format):
//
//   sentomist-journal v1
//   meta\t<first_seed>\t<runs>\t<k>\t<fnv64 hex>
//   run\t<seed>\t<status>\t<triggered>\t<rank>\t<degraded>\t<attempts>\t
//       <quarantined>\t<message>\t<fnv64 hex>
//
// Every meta/run line carries an FNV-1a checksum of the bytes before its
// final tab; messages are backslash-escaped so the format stays strictly
// one line per record. Records may appear in any order (a --jobs N
// campaign journals in completion order) and a later record for the same
// seed supersedes an earlier one.
//
// Durability model:
//   * every append commits, and commits are atomic: the full contents are
//     written to <path>.tmp and renamed over <path>, so a crash leaves
//     either the old or the new journal, never an interleaving, and loses
//     at most the outcomes still running. Each commit rewrites every
//     record, so a campaign's journal work grows with the square of its
//     run count;
//   * recovery never aborts: recover_journal() validates checksums line
//     by line and truncates at the first torn/corrupt record, salvaging
//     the valid prefix (a corrupt record is dropped, never resurrected);
//   * IO errors degrade durability, not the campaign: a failed commit is
//     counted and retried on the next commit with the records intact.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "pipeline/campaign.hpp"

namespace sent::pipeline {

/// Current journal format version, written in the header line.
inline constexpr int kJournalFormatVersion = 1;

/// Campaign identity a journal belongs to. Resume refuses a journal whose
/// meta does not match the resumed campaign exactly — silently mixing two
/// campaigns' outcomes is precisely the kind of unauditable result the
/// journal exists to prevent.
struct JournalMeta {
  std::uint64_t first_seed = 0;
  std::uint64_t runs = 0;
  std::uint64_t k = 0;

  bool operator==(const JournalMeta&) const = default;
};

/// One seeded outcome, exactly what seed-order aggregation needs.
struct JournalRecord {
  std::uint64_t seed = 0;
  RunStatus status = RunStatus::Completed;
  bool triggered = false;
  std::uint64_t first_rank = 0;  ///< meaningful when triggered
  bool degraded = false;
  std::uint32_t attempts = 1;  ///< total attempts (1 = no retry)
  bool quarantined = false;    ///< failed every attempt under retry policy
  std::string message;         ///< Failed / TimedOut only

  bool operator==(const JournalRecord&) const = default;
};

/// Result of a recovery scan over a (possibly damaged) journal file.
struct JournalRecovery {
  bool file_existed = false;
  bool header_valid = false;  ///< magic + meta line both intact
  JournalMeta meta;
  std::vector<JournalRecord> records;  ///< valid prefix, file order
  bool truncated = false;  ///< a torn/corrupt tail was dropped
  std::string error;       ///< first problem ("line N: ..."); empty if none
};

/// Scan `path`, validating checksums line by line; salvage the valid
/// prefix and stop at the first torn/corrupt line. Never throws on
/// damaged contents — arbitrary bytes yield an empty recovery with an
/// error, not an exception. (Only filesystem-level surprises like a
/// directory at `path` surface as errors in the result too.)
JournalRecovery recover_journal(const std::string& path);

/// Serialization helpers, exposed for tests and external auditing tools.
std::string format_journal_meta(const JournalMeta& meta);
std::string format_journal_record(const JournalRecord& record);

/// Append-only journal writer with atomic commits. Thread-safe: campaign
/// pool workers append concurrently; records are kept in memory (they are
/// ~100 bytes each) and every append commits, atomically rewriting the
/// whole file via temp-file + rename.
class JournalWriter {
 public:
  /// Chaos/test hook, called with the serialized bytes just before each
  /// commit writes them. May shorten `bytes` (a torn write) or throw (an
  /// IO error); both are absorbed by the durability model. The index is
  /// the 0-based commit count.
  using CommitHook = std::function<void(std::uint64_t commit_index,
                                        std::string& bytes)>;

  /// Start (or resume) a journal at `path` for the campaign described by
  /// `meta`. `recovered` seeds the record set (pass the recovery's
  /// records when resuming, empty otherwise); the file is committed
  /// immediately, which atomically drops any corrupt tail found by
  /// recovery.
  JournalWriter(std::string path, JournalMeta meta,
                std::vector<JournalRecord> recovered);

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  void set_commit_hook(CommitHook hook);

  /// Append one record and commit. Never throws on IO problems (see
  /// io_errors()).
  void append(const JournalRecord& record);

  /// Atomically write the full contents (temp-file + rename). Returns
  /// false — and keeps every record buffered for the next attempt — on
  /// an IO error.
  bool commit();

  std::uint64_t appended() const;   ///< records appended this session
  std::uint64_t commits() const;    ///< successful commits
  std::uint64_t io_errors() const;  ///< failed commit attempts
  const std::string& path() const { return path_; }

 private:
  bool commit_locked();
  std::string serialize_locked() const;

  const std::string path_;
  const std::string tmp_path_;
  const JournalMeta meta_;

  mutable std::mutex mutex_;
  std::vector<JournalRecord> records_;
  CommitHook hook_;
  std::uint64_t appended_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t commit_attempts_ = 0;
  std::uint64_t io_errors_ = 0;
};

}  // namespace sent::pipeline
