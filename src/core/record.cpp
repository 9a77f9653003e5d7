#include "core/record.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <utility>

namespace hdiff::core {

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  return fnv1a64(bytes, kFnv1a64Basis);
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t state) noexcept {
  for (unsigned char c : bytes) {
    state ^= c;
    state *= 1099511628211ull;  // FNV prime
  }
  return state;
}

std::string hex16(std::uint64_t v) {
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0; v >>= 4) out[i] = "0123456789abcdef"[v & 0xF];
  return out;
}

namespace {

void append_hex(std::string* out, std::string_view bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->reserve(out->size() + bytes.size() * 2);
  for (char c : bytes) {
    const unsigned char u = static_cast<unsigned char>(c);
    out->push_back(kHex[u >> 4]);
    out->push_back(kHex[u & 0xF]);
  }
}

}  // namespace

std::string hex_encode(std::string_view bytes) {
  std::string out;
  append_hex(&out, bytes);
  return out;
}

bool hex_decode(std::string_view hex, std::string* out) {
  if (hex.size() % 2 != 0 || !out) return false;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  out->clear();
  out->reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

bool read_file(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  out->clear();
  char buf[1 << 16];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof buf)) != 0) {
    if (n > 0) out->append(buf, static_cast<std::size_t>(n));
    else if (errno != EINTR) break;
  }
  ::close(fd);
  return n == 0;
}

std::string field_enc(std::string_view s) {
  return s.empty() ? std::string("-") : hex_encode(s);
}

bool field_dec(std::string_view token, std::string* out) {
  if (token == "-") {
    out->clear();
    return true;
  }
  return hex_decode(token, out);
}

RecordWriter& RecordWriter::start(std::string_view name, bool spaced) {
  if (open_) out_ += '\n';
  out_ += name;
  open_ = true;
  spaced_ = spaced;
  return *this;
}

RecordWriter& RecordWriter::token(std::string_view s) {
  if (spaced_) out_ += ' ';
  spaced_ = true;
  out_ += s;
  return *this;
}

RecordWriter& RecordWriter::bytes(std::string_view s) {
  if (s.empty()) return token("-");
  token({});
  append_hex(&out_, s);
  return *this;
}

std::string RecordWriter::take() {
  if (open_) out_ += '\n';
  open_ = spaced_ = false;
  return std::exchange(out_, {});
}

bool Record::flag(std::size_t i, bool* out) const {
  const std::string_view f = field(i);
  if (f != "0" && f != "1") return false;
  *out = f == "1";
  return true;
}

bool Record::parse(std::string_view line) {
  const std::size_t eq = line.find('=');
  if (eq == 0 || eq == std::string_view::npos) return false;
  text_ = line;
  key_ = line.substr(0, eq);
  return split(line.substr(eq + 1));
}

bool Record::split(std::string_view value) {
  value_ = value;
  fields_.clear();
  if (value.empty()) return true;
  for (std::size_t pos = 0;;) {
    const std::size_t space = value.find(' ', pos);
    const std::string_view f = value.substr(pos, space - pos);
    if (f.empty()) return false;
    fields_.push_back(f);
    if (space == std::string_view::npos) return true;
    pos = space + 1;
  }
}

bool RecordReader::take_line(std::string_view* line) {
  if (rest_.empty()) return false;
  const std::size_t nl = rest_.find('\n');
  if (nl == std::string_view::npos) {  // torn: no final newline
    rest_ = {};
    return fail();
  }
  *line = rest_.substr(0, nl);
  rest_.remove_prefix(nl + 1);
  return true;
}

bool RecordReader::header(std::string_view name) {
  std::string_view line;
  if (!take_line(&line) || line.substr(0, name.size()) != name) return fail();
  const std::string_view fields = line.substr(name.size());
  record_.text_ = line;
  record_.key_ = name;
  if (fields.empty()) return record_.split({});
  return (fields.size() > 1 && fields.front() == ' ' &&
          record_.split(fields.substr(1))) ||
         fail();
}

bool RecordReader::next() {
  std::string_view line;
  if (!take_line(&line)) return false;
  return record_.parse(line) || fail();
}

bool RecordReader::end(std::string_view marker) {
  std::string_view line;
  return (take_line(&line) && line == marker && done()) || fail();
}

namespace {

constexpr std::array<std::string_view, 8> kSpecKeys = {
    "method", "target", "version", "sep1", "sep2", "eol", "end", "body"};

/// The spec's scalar fields in kSpecKeys order.
template <typename Spec>
auto spec_scalars(Spec& s) {
  return std::array{&s.method, &s.target, &s.version, &s.sep1, &s.sep2,
                    &s.line_terminator, &s.headers_terminator, &s.body};
}

}  // namespace

std::string serialize_spec(const http::RequestSpec& spec) {
  RecordWriter w;
  w.header("spec-v1");
  const auto scalars = spec_scalars(spec);
  for (std::size_t i = 0; i < kSpecKeys.size(); ++i) {
    w.line(kSpecKeys[i]).bytes(*scalars[i]);
  }
  for (const auto& h : spec.headers) {
    w.line("h").bytes(h.name).bytes(h.value).bytes(h.separator)
        .bytes(h.terminator);
  }
  return w.take();
}

bool deserialize_spec(std::string_view text, http::RequestSpec* out) {
  *out = http::RequestSpec{};
  out->headers.clear();
  RecordReader r(text);
  if (!r.header("spec-v1") || r.record().size() != 0) return false;
  const auto scalars = spec_scalars(*out);
  for (std::size_t i = 0; i < kSpecKeys.size(); ++i) {
    if (!r.next() || r.record().key() != kSpecKeys[i] ||
        r.record().size() != 1 || !r.record().bytes(0, scalars[i])) {
      return false;
    }
  }
  while (r.next()) {
    const Record& line = r.record();
    http::HeaderSpec h;
    if (line.key() != "h" || line.size() != 4 || !line.bytes(0, &h.name) ||
        !line.bytes(1, &h.value) || !line.bytes(2, &h.separator) ||
        !line.bytes(3, &h.terminator)) {
      return false;
    }
    out->headers.push_back(std::move(h));
  }
  return r.ok();
}

}  // namespace hdiff::core
