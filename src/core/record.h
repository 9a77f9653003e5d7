// The durable-record codec: the one reader and the one writer of every
// line-based state file (spec-v1 and hdiff-stream-v1 corpus files, the
// hdiff-campaign-state-v1 checkpoint, hdiff-shard-result-v1 shard results,
// flight.events), plus the field encodings, hash and hex helpers.  The
// shared framing rules are stated once, in DESIGN.md §6 "Durable records",
// and only this codec writes them; each format keeps only its key table and
// cross-line checks.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "http/serialize.h"

namespace hdiff::core {

/// The FNV-1a 64 offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ull;

/// FNV-1a 64 from the standard offset basis: the observation-memo hash,
/// the shard key, and (as hex16) the content address and fingerprint.
std::uint64_t fnv1a64(std::string_view bytes) noexcept;
/// FNV-1a 64 continued from `state` instead of the offset basis.
std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t state) noexcept;

/// `v` as 16 lowercase hex digits.
std::string hex16(std::uint64_t v);

/// Lowercase base-16 of `bytes`.  hex_decode takes either case and rejects
/// odd lengths and non-hex digits.
std::string hex_encode(std::string_view bytes);
bool hex_decode(std::string_view hex, std::string* out);

/// The whole file at `path`; false when it cannot be opened or read.
bool read_file(const std::string& path, std::string* out);

/// Space-safe byte field: hex for non-empty payloads, "-" for the empty
/// string (zero hex digits would vanish under space-splitting).
std::string field_enc(std::string_view s);
bool field_dec(std::string_view token, std::string* out);

/// Strict decimal: exactly what std::to_string writes for a T.  Digits
/// only (a leading '-' for signed T), no leading zeros, no "-0", and the
/// value fits T.
template <typename T>
bool parse_dec(std::string_view s, T* out) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  const bool negative = !s.empty() && s.front() == '-';
  const std::string_view digits = s.substr(negative ? 1 : 0);
  if (digits.empty() || (digits.front() == '0' && s.size() > 1)) return false;
  T value{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  *out = value;
  return true;
}

/// One line of a record, split over views of the text: `key=f0 f1 ...`,
/// or a header line `name f0 f1 ...` (key = name).
class Record {
 public:
  /// The whole line, without its '\n'.
  std::string_view text() const { return text_; }
  std::string_view key() const { return key_; }
  /// Everything after the '=' (after the name and its space, for a header).
  std::string_view value() const { return value_; }
  std::size_t size() const { return fields_.size(); }
  /// Field `i`, or "" past the end.
  std::string_view field(std::size_t i) const {
    return i < fields_.size() ? fields_[i] : std::string_view{};
  }
  /// Field `i` as a strict decimal T.
  template <typename T>
  bool dec(std::size_t i, T* out) const {
    return i < fields_.size() && parse_dec(fields_[i], out);
  }
  /// Field `i` through field_dec.
  bool bytes(std::size_t i, std::string* out) const {
    return i < fields_.size() && field_dec(fields_[i], out);
  }
  /// Field `i` as "0" or "1".
  bool flag(std::size_t i, bool* out) const;

  /// Split `line` as `key=f0 f1 ...`.  False without a key or '=', or when
  /// the fields are not separated by single spaces.
  bool parse(std::string_view line);

 private:
  friend class RecordReader;
  bool split(std::string_view value);

  std::string_view text_;
  std::string_view key_;
  std::string_view value_;
  std::vector<std::string_view> fields_;
};

/// Walks the '\n'-terminated lines of a loaded text.
class RecordReader {
 public:
  explicit RecordReader(std::string_view text) : rest_(text) {}

  /// Read the header line: `name` alone, or `name f0 f1 ...` with its
  /// fields in record().
  bool header(std::string_view name);

  /// Advance to the next `key=...` line.  False at the end of the text or
  /// on a line that breaks the framing (no final '\n', empty, no '=', bad
  /// spacing); ok() tells the two apart.  A bad line is consumed, so a
  /// reader that skips noise (the flight log) can keep calling next().
  bool next();

  /// The next line is exactly `marker`, and nothing follows it.
  bool end(std::string_view marker);

  const Record& record() const { return record_; }
  /// No framing error so far.
  bool ok() const { return ok_; }
  /// Every byte consumed.
  bool done() const { return rest_.empty(); }

 private:
  bool take_line(std::string_view* line);
  bool fail() {
    ok_ = false;
    return false;
  }

  std::string_view rest_;
  Record record_;
  bool ok_ = true;
};

/// Builds the '\n'-terminated lines RecordReader reads: `key=f0 f1 ...`
/// lines and `name f0 f1 ...` header (or bare marker) lines, one space
/// before every field but a `key=` line's first.  Fields append in place.
class RecordWriter {
 public:
  /// Start a header line `name`; with no fields, a bare marker line.
  RecordWriter& header(std::string_view name) { return start(name, true); }
  /// Start a `key=` line.
  RecordWriter& line(std::string_view key) {
    start(key, false);
    out_ += '=';
    return *this;
  }
  /// A decimal field, exactly what parse_dec reads back.
  template <typename T>
  RecordWriter& dec(T v) {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return token(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  /// A field_enc byte field.
  RecordWriter& bytes(std::string_view s);
  /// A space-free field written as is (hashes, signatures, names).
  RecordWriter& token(std::string_view s);
  /// "1" or "0".
  RecordWriter& flag(bool b) { return token(b ? "1" : "0"); }
  /// The text with its last line closed; the writer starts over empty.
  std::string take();

 private:
  RecordWriter& start(std::string_view name, bool spaced);

  std::string out_;
  bool open_ = false;    ///< a line awaits its '\n'
  bool spaced_ = false;  ///< the next field needs a separating space
};

/// Canonical text form of a spec: the "spec-v1" header, then method,
/// target, version, sep1, sep2, eol, end and body lines in that order, then
/// one `h=<name> <value> <separator> <terminator>` line per header.  The
/// corpus file format and the content-address preimage.
std::string serialize_spec(const http::RequestSpec& spec);
bool deserialize_spec(std::string_view text, http::RequestSpec* out);

}  // namespace hdiff::core
