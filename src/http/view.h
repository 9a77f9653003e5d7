// Zero-copy parsed views over raw HTTP/1.x bytes.
//
// `RequestView` / `ResponseView` are the allocation-free counterparts of
// RawRequest / RawResponse: every field is a `std::string_view` into the
// single caller-owned buffer that was parsed, and the header block is a
// vector of name/value view pairs.  A *reused* view re-parses with zero
// allocations once its vectors have warmed up to the message shape — the
// property the observe hot path (chain hops, stream classification) relies
// on and bench_zero_copy asserts.
//
// Lifetime contract: a view NEVER outlives the buffer it was parsed from.
// Parsing borrows `raw`; nothing is copied, so the caller must keep the
// bytes alive and unmodified for as long as the view (or any view obtained
// from it) is read.  `materialize()` is the escape hatch: it deep-copies
// the view into the owned message types, byte-for-byte what the historical
// owned lexer produced — detectors and the campaign store consume only
// materialized messages and are untouched by this layer.
//
// The owned lexers (`lex_request`, `lex_response`) are implemented as
// `parse_*_view(raw).materialize()`, so the view parser is the single
// source of truth; `http::reference` (tests/http/reference.h) keeps a
// frozen copy of the historical lexer as the differential oracle for the
// parity suite.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "http/message.h"
#include "http/response.h"

namespace hdiff::http {

/// One header field as a pair of views into the parsed buffer.  A folded
/// field (obs-fold continuations) keeps its first-line views here and
/// indexes its continuation segments in the owning view's `folds` array;
/// `value` is then only the first segment — use `joined_value()` on the
/// owning view (or `materialize()`) for the logical value.
struct HeaderView {
  std::string_view name;      ///< bytes before the colon, *un*trimmed
  std::string_view value;     ///< first-line value, OWS-trimmed
  std::string_view raw_line;  ///< first physical line (no terminator)
  AnomalySet anomalies = 0;
  std::uint32_t fold_begin = 0;  ///< index into the owning view's folds
  std::uint32_t fold_count = 0;

  bool folded() const noexcept { return fold_count != 0; }
};

/// One obs-fold continuation line.
struct FoldView {
  std::string_view cont;      ///< continuation content, OWS-trimmed
  std::string_view raw_text;  ///< the full continuation line
};

/// The request line split into views.  When the line has more than three
/// SP/HTAB-separated parts, `target` spans from the first to the last
/// middle token *including* the original separators; `materialize()`
/// re-joins the tokens with single spaces exactly as the owned lexer does
/// (the `target_rejoined` flag marks that case).
struct RequestLineView {
  std::string_view method_token;
  std::string_view target;
  std::string_view version_token;  ///< empty when absent (HTTP/0.9 form)
  std::string_view raw;            ///< full original line
  AnomalySet anomalies = 0;
  bool target_rejoined = false;

  std::optional<Version> strict_version() const noexcept {
    return parse_strict_version(version_token);
  }
};

/// A lexed request as views over one caller-owned buffer.  Reusable: a view
/// passed back into `parse_request_view` is cleared with its vector
/// capacity kept, so steady-state re-parsing allocates nothing.
struct RequestView {
  std::string_view raw;  ///< the buffer every other view points into
  RequestLineView line;
  std::vector<HeaderView> headers;
  std::vector<FoldView> folds;  ///< continuation lines, grouped per header
  std::vector<std::string_view> line_parts;  ///< request-line tokens
  std::string_view after_headers;
  AnomalySet anomalies = 0;

  /// First header matching `name` case-insensitively after lenient-ws
  /// normalization (same match rule as RawRequest::find_first); nullptr if
  /// absent.  Allocation-free.
  const HeaderView* find_first(std::string_view name) const noexcept;

  /// Number of headers matching `name` (allocation-free count()).
  std::size_t count(std::string_view name) const noexcept;

  /// Logical value of `h` with obs-fold continuations joined.  Unfolded
  /// headers return `h.value` directly; folded ones are assembled into
  /// `scratch` (the only case that can touch the heap, and only until
  /// `scratch` has warmed up).
  std::string_view joined_value(const HeaderView& h,
                                std::string& scratch) const;

  /// Deep copy into the owned representation, byte-identical to what the
  /// historical owned lexer produced for the same bytes.
  RawRequest materialize() const;

  /// Forget the previous parse but keep vector capacity.
  void clear() noexcept;
};

/// Parse `raw` into `out` (reusing its capacity).  Descriptive like the
/// owned lexer: never rejects, records anomalies.  `out` borrows `raw`.
void parse_request_view(std::string_view raw, RequestView& out);

/// Convenience single-shot form (no capacity reuse).
RequestView parse_request_view(std::string_view raw);

/// A lexed response as views.  Header-block machinery is shared with
/// RequestView (`base`); the status line is re-split from `base.line.raw`
/// exactly as the owned `lex_response` does.
struct ResponseView {
  RequestView base;
  Version version{1, 1};
  int status = 0;  ///< 0 when the status line is unparseable
  std::string_view reason;

  bool status_line_valid() const noexcept { return status != 0; }
  const std::vector<HeaderView>& headers() const noexcept {
    return base.headers;
  }
  std::string_view after_headers() const noexcept {
    return base.after_headers;
  }
  AnomalySet anomalies() const noexcept { return base.anomalies; }

  const HeaderView* find_first(std::string_view name) const noexcept {
    return base.find_first(name);
  }
  std::string_view joined_value(const HeaderView& h,
                                std::string& scratch) const {
    return base.joined_value(h, scratch);
  }

  RawResponse materialize() const;
  void clear() noexcept;
};

/// Parse `raw` as a response into `out` (reusing its capacity).
void parse_response_view(std::string_view raw, ResponseView& out);
ResponseView parse_response_view(std::string_view raw);

/// Framing decision computed directly on a response view — same rules as
/// `response_framing(const RawResponse&, Method)`.  Allocation-free except
/// when the Transfer-Encoding or Content-Length field is obs-folded, in
/// which case the logical value is assembled into `scratch`.
ResponseFraming response_framing(const ResponseView& response,
                                 Method request_method, std::string& scratch);

/// Completeness verdict for the first response on a connection stream,
/// computed without materializing anything: the allocation-free core of
/// `frame_first_response` for callers (the stream classifier, the event
/// loop) that only need to know whether more bytes are required.
struct ResponseProbe {
  bool status_line_valid = false;
  bool interim = false;   ///< 1xx informational response
  bool complete = false;  ///< false when more bytes are required
};

/// Probe the first response in `raw` for a request with `request_method`.
/// `probe.complete` matches `frame_first_response(raw, m).complete` exactly.
ResponseProbe probe_first_response(std::string_view raw,
                                   Method request_method) noexcept;

/// Method of the request at the head of `raw` — byte-for-byte the token
/// `lex_request(raw).line.method_token` would carry, computed from the
/// request line alone with zero allocations.  The chain's per-hop method
/// sniff and the stream classifier use this instead of a full lex.
Method sniff_method(std::string_view raw) noexcept;

}  // namespace hdiff::http
