// Chunked transfer-coding decoder (RFC 7230 §4.1) with pluggable laxness.
//
// Chunk parsing is one of the richest sources of request-smuggling gaps:
// implementations differ on hex-overflow handling, on whether chunk data must
// be followed by CRLF, on chunk extensions, and on garbage bytes in the size
// line.  `ChunkPolicy` captures those dials; each product model owns one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hdiff::http {

/// Dials controlling how lenient the decoder is.
struct ChunkPolicy {
  /// Wrap the chunk-size modulo 2^wrap_bits instead of rejecting overflow
  /// (models C parsers accumulating into a fixed-width integer).
  bool wrapping_size = false;
  unsigned wrap_bits = 32;
  /// Accept chunk extensions (";token=value") after the size.
  bool allow_extensions = true;
  /// Accept arbitrary trailing garbage on the size line even when extensions
  /// are disabled or malformed (scan-first-hex-digits behaviour).
  bool lenient_size_line = false;
  /// Require the CRLF that must follow chunk-data; when false, the decoder
  /// resynchronizes by scanning for the next CRLF (data-repair behaviour).
  bool require_crlf_after_data = true;
  /// Treat a NUL byte inside chunk-data as a fatal error.
  bool reject_nul_in_data = false;
  /// C-string-style handling: a NUL byte inside chunk-data terminates the
  /// body; everything after it is treated as the next message (a real
  /// desynchronization primitive — Table II "NULL in chunk-data").
  bool nul_terminates_body = false;
  /// Accept bare-LF line terminators inside the chunked framing.
  bool allow_bare_lf = false;
  /// Upper bound on a single chunk size this implementation will buffer.
  std::uint64_t max_chunk_size = 1ull << 30;
};

/// Decoder outcome.  `ok==false` with `incomplete==true` means the decoder
/// consumed the whole input but needs more bytes (a real server would block
/// — precisely the hang/smuggle primitive); `ok==false` otherwise means the
/// framing was judged invalid (a real server answers 400 and closes).
struct ChunkResult {
  bool ok = false;
  bool incomplete = false;
  bool size_overflowed = false;  ///< wrapping or digit-truncation occurred
  bool saw_nul = false;          ///< NUL byte observed inside chunk-data
  std::string body;              ///< concatenated decoded chunk-data
  std::string leftover;          ///< bytes after the terminating sequence
  std::string error;             ///< human-readable failure reason
  std::vector<std::uint64_t> chunk_sizes;  ///< as interpreted, in order
};

ChunkResult decode_chunked(std::string_view in, const ChunkPolicy& policy);

/// Allocation-free scan outcome: chunk-data is reported as (offset, length)
/// ranges into the scanned input instead of a concatenated string, and the
/// error is a view of a static literal.  `decode_chunked` is a materializing
/// wrapper over `scan_chunked`; hot paths (response framing on views, the
/// client's response-completeness probe) consume the scan directly.  A reused ChunkScan
/// re-scans with zero allocations once its vectors have warmed up.
struct ChunkScan {
  bool ok = false;
  bool incomplete = false;
  bool size_overflowed = false;
  bool saw_nul = false;
  /// Offset of the first byte after the terminating sequence; npos when the
  /// scan did not complete a message (leftover undefined).
  std::size_t leftover_begin = std::string_view::npos;
  std::string_view error;  ///< static literal; empty on clean success
  std::vector<std::pair<std::size_t, std::size_t>> data;  ///< body ranges
  std::vector<std::uint64_t> chunk_sizes;  ///< as interpreted, in order

  /// Total decoded body length across all ranges.
  std::size_t body_size() const noexcept;

  /// Forget the previous scan but keep vector capacity.
  void reset() noexcept;
};

/// Scan `in` as a chunked body under `policy`, reusing `out`'s capacity.
/// Field-for-field equivalent to decode_chunked (same flags, same error
/// strings, same chunk_sizes); `out` borrows `in` only via offsets, so the
/// result stays valid as long as the caller interprets the ranges against
/// the same bytes.
void scan_chunked(std::string_view in, const ChunkPolicy& policy,
                  ChunkScan& out);

/// Re-serialize a decoded body as a single well-formed chunked sequence
/// ("<hex>\r\n<data>\r\n0\r\n\r\n"), as a repairing proxy would emit.
std::string encode_chunked(std::string_view body);

}  // namespace hdiff::http
