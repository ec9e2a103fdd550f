// Trace (de)serialization.
//
// The real Sentomist splits into a front end (an Avrora monitor that
// records the run) and a back end (offline analysis). This module gives
// the same split: save_trace writes a versioned, line-oriented text format
// a human can inspect; load_trace restores it exactly. The instruction
// stream is delta-encoded on the cycle column, which keeps long traces
// compact without sacrificing greppability.
//
// The codec works on one buffer: save_trace appends the whole trace to a
// std::string, and the loaders parse a std::string_view line by line,
// with no per-line or per-field allocation. Numbers are exactly the
// unsigned decimal digits save_trace writes (no sign, no whitespace, no
// overflow). The stream and file functions are thin wrappers over the
// buffer ones; the stream loaders consume the whole stream.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/recorder.hpp"
#include "util/assert.hpp"

namespace sent::trace {

/// Current format version, written in the header line.
inline constexpr int kTraceFormatVersion = 1;

/// Append the serialized trace to `out`. Callers that reuse one buffer
/// across runs clear it first and keep its capacity.
void save_trace(const NodeTrace& trace, std::string& out);
void save_trace(const NodeTrace& trace, std::ostream& out);
NodeTrace load_trace(std::istream& in);

/// File-path convenience wrappers. Throw util::PreconditionError when the
/// file cannot be opened and MalformedTraceFile on parse errors.
void save_trace_file(const NodeTrace& trace, const std::string& path);
NodeTrace load_trace_file(const std::string& path);

/// Thrown by load_trace on any structural problem in the input. The message
/// names the 1-based line the parse failed on ("line N: ...").
class MalformedTraceFile : public util::PreconditionError {
 public:
  using util::PreconditionError::PreconditionError;
};

/// Result of a lenient load: everything parsed up to the first structural
/// problem. `trace` is the salvaged prefix with run_end clamped so no
/// surviving record lies beyond it (safe to hand to the anatomizer, which
/// closes dangling intervals at run_end). When `complete` is false,
/// `error_line`/`error` describe the first problem, mirroring what the
/// strict loader would have thrown.
struct LenientLoadResult {
  NodeTrace trace;
  bool complete = true;
  std::size_t error_line = 0;  ///< 1-based; 0 when complete
  std::string error;
};

/// Salvage the valid prefix of a (possibly truncated or corrupted) trace.
/// Never throws MalformedTraceFile; a trace that fails at the very first
/// line yields an empty trace with complete=false. `recycled` donates its
/// buffer capacity (e.g. apps::WorldArena::take_buffer()); it is scrubbed
/// first, so the result is the same as loading into a fresh NodeTrace.
LenientLoadResult load_trace_lenient(std::string_view text,
                                     NodeTrace recycled = {});
LenientLoadResult load_trace_lenient(std::istream& in);

}  // namespace sent::trace
