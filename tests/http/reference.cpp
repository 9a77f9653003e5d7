// Frozen pre-view parsers — see reference.h.  These are verbatim copies of
// the lexer.cpp / response.cpp / chunked.cpp implementations as of the PR
// that introduced http::view, with only the namespace changed and response
// header lookup inlined (the old `normalized_name() == to_lower(key)` walk).
// Deliberately allocation-heavy; used only by the parity tests.
#include "reference.h"

#include <cstddef>
#include <optional>

#include "http/header_util.h"

namespace hdiff::http::reference {

namespace {

/// One physical line plus how it was terminated.
struct Line {
  std::string text;        // line content without terminator
  bool bare_lf = false;    // terminated by LF without preceding CR
  bool stray_cr = false;   // CR appearing inside the line (not part of CRLF)
  bool terminated = true;  // false if input ended mid-line
  std::size_t end_offset = 0;  // offset one past the terminator in the input
};

/// Extract the next line starting at `pos`.  A line ends at the first LF;
/// a CR immediately before that LF is consumed as part of the terminator.
Line next_line(std::string_view raw, std::size_t pos) {
  Line line;
  std::size_t i = pos;
  while (i < raw.size() && raw[i] != '\n') ++i;
  if (i >= raw.size()) {
    line.text.assign(raw.substr(pos));
    line.terminated = false;
    line.end_offset = raw.size();
  } else {
    std::size_t text_end = i;
    if (text_end > pos && raw[text_end - 1] == '\r') {
      --text_end;
    } else {
      line.bare_lf = true;
    }
    line.text.assign(raw.substr(pos, text_end - pos));
    line.end_offset = i + 1;
  }
  for (char c : line.text) {
    if (c == '\r') {
      line.stray_cr = true;
      break;
    }
  }
  return line;
}

void scan_byte_anomalies(std::string_view text, AnomalySet& set) {
  for (char c : text) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u == 0) add_anomaly(set, Anomaly::kNulByte);
    if (u >= 0x80) add_anomaly(set, Anomaly::kHighBitChar);
  }
}

/// Split the request line on runs of SP/HTAB.  RFC 7230 mandates exactly one
/// SP between the three components; anything else is flagged.
void parse_request_line(const Line& line, RequestLine& out) {
  out.raw = line.text;
  if (line.bare_lf) add_anomaly(out.anomalies, Anomaly::kBareLf);
  if (line.stray_cr) add_anomaly(out.anomalies, Anomaly::kBareCr);
  scan_byte_anomalies(line.text, out.anomalies);

  const std::string& s = line.text;
  std::vector<std::string> parts;
  bool saw_extra_ws = false;
  auto is_sep = [](char c) { return c == ' ' || c == '\t'; };
  std::size_t i = 0;
  while (i < s.size()) {
    if (is_sep(s[i])) {
      std::size_t run = 0;
      bool tab = false;
      while (i < s.size() && is_sep(s[i])) {
        tab = tab || s[i] == '\t';
        ++run;
        ++i;
      }
      if (tab || run > 1 || parts.empty() || i >= s.size()) saw_extra_ws = true;
      continue;
    }
    std::size_t start = i;
    while (i < s.size() && !is_sep(s[i])) ++i;
    parts.emplace_back(s.substr(start, i - start));
  }
  if (saw_extra_ws) add_anomaly(out.anomalies, Anomaly::kExtraRequestLineWs);

  if (parts.size() == 3) {
    out.method_token = parts[0];
    out.target = parts[1];
    out.version_token = parts[2];
  } else if (parts.size() == 2) {
    // HTTP/0.9 simple-request form: METHOD SP target
    out.method_token = parts[0];
    out.target = parts[1];
    add_anomaly(out.anomalies, Anomaly::kNoVersion);
  } else if (parts.size() > 3) {
    add_anomaly(out.anomalies, Anomaly::kRequestLineParts);
    out.method_token = parts.front();
    out.version_token = parts.back();
    std::string target;
    for (std::size_t p = 1; p + 1 < parts.size(); ++p) {
      if (!target.empty()) target += ' ';
      target += parts[p];
    }
    out.target = target;
  } else {
    add_anomaly(out.anomalies, Anomaly::kRequestLineParts);
    if (!parts.empty()) out.method_token = parts[0];
  }

  if (!out.version_token.empty() && !out.strict_version()) {
    add_anomaly(out.anomalies, Anomaly::kMalformedVersion);
  }
}

RawHeader parse_header_line(const Line& line) {
  RawHeader h;
  h.raw_line = line.text;
  if (line.bare_lf) add_anomaly(h.anomalies, Anomaly::kBareLf);
  if (line.stray_cr) add_anomaly(h.anomalies, Anomaly::kBareCr);
  scan_byte_anomalies(line.text, h.anomalies);

  std::size_t colon = line.text.find(':');
  if (colon == std::string::npos) {
    add_anomaly(h.anomalies, Anomaly::kMissingColon);
    h.name = line.text;
    return h;
  }
  h.name = line.text.substr(0, colon);
  std::string_view value{line.text};
  value.remove_prefix(colon + 1);
  h.value.assign(trim_ows(value));

  if (h.name.empty()) {
    add_anomaly(h.anomalies, Anomaly::kEmptyName);
  } else {
    if (is_ows(h.name.back()) || h.name.back() == '\v' || h.name.back() == '\f') {
      add_anomaly(h.anomalies, Anomaly::kWsBeforeColon);
    }
    std::string_view core = trim_lenient_ws(h.name);
    for (char c : core) {
      if (c == ' ' || c == '\t' || c == '\v' || c == '\f') {
        add_anomaly(h.anomalies, Anomaly::kWsInFieldName);
        break;
      }
    }
    if (core.empty()) {
      add_anomaly(h.anomalies, Anomaly::kEmptyName);
    } else if (!is_token(core)) {
      add_anomaly(h.anomalies, Anomaly::kNonTokenName);
    } else if (core.data() != h.name.data()) {
      add_anomaly(h.anomalies, Anomaly::kNonTokenName);
    }
  }
  for (char c : h.value) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20 && c != '\t') {
      add_anomaly(h.anomalies, Anomaly::kCtlInValue);
      break;
    }
  }
  return h;
}

int parse_status_code(std::string_view token) {
  if (token.size() != 3) return 0;
  int value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return 0;
    value = value * 10 + (c - '0');
  }
  return (value >= 100 && value <= 599) ? value : 0;
}

/// The historical RawResponse::find_first: normalized_name() == to_lower(key),
/// allocating on every query.
const RawHeader* find_first_old(const RawResponse& response,
                                std::string_view name) {
  std::string key = to_lower(name);
  for (const auto& h : response.headers) {
    if (h.normalized_name() == key) return &h;
  }
  return nullptr;
}

struct LineRead {
  std::string text;
  std::size_t next = 0;   // offset after terminator
  bool found = false;     // a terminator was found
  bool bare_lf = false;
};

LineRead read_line(std::string_view in, std::size_t pos) {
  LineRead out;
  std::size_t i = pos;
  while (i < in.size() && in[i] != '\n') ++i;
  if (i >= in.size()) {
    out.text.assign(in.substr(pos));
    out.next = in.size();
    return out;
  }
  std::size_t end = i;
  if (end > pos && in[end - 1] == '\r') {
    --end;
  } else {
    out.bare_lf = true;
  }
  out.text.assign(in.substr(pos, end - pos));
  out.next = i + 1;
  out.found = true;
  return out;
}

bool is_hex(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

}  // namespace

RawRequest lex_request(std::string_view raw) {
  RawRequest req;
  std::size_t pos = 0;

  // Skip blank lines before the request line (RFC 7230 §3.5).
  Line line = next_line(raw, pos);
  while (line.terminated && line.text.empty() && line.end_offset < raw.size()) {
    pos = line.end_offset;
    line = next_line(raw, pos);
  }

  parse_request_line(line, req.line);
  req.anomalies |= req.line.anomalies;
  if (!line.terminated) {
    add_anomaly(req.anomalies, Anomaly::kTruncatedHeaders);
    return req;
  }
  pos = line.end_offset;

  bool first_header = true;
  while (true) {
    if (pos >= raw.size()) {
      add_anomaly(req.anomalies, Anomaly::kTruncatedHeaders);
      return req;
    }
    line = next_line(raw, pos);
    pos = line.end_offset;
    if (line.text.empty()) {
      if (!line.terminated) {
        add_anomaly(req.anomalies, Anomaly::kTruncatedHeaders);
        return req;
      }
      break;  // end of header block
    }
    if (!line.terminated) {
      add_anomaly(req.anomalies, Anomaly::kTruncatedHeaders);
      // Still record the partial line so models can inspect it.
    }

    const bool starts_with_ws = line.text[0] == ' ' || line.text[0] == '\t';
    if (starts_with_ws && !first_header && !req.headers.empty()) {
      // Obsolete line folding: the line continues the previous field value.
      RawHeader& prev = req.headers.back();
      add_anomaly(prev.anomalies, Anomaly::kObsFold);
      add_anomaly(req.anomalies, Anomaly::kObsFold);
      std::string_view cont = trim_ows(line.text);
      if (!prev.value.empty() && !cont.empty()) prev.value += ' ';
      prev.value.append(cont);
      prev.raw_line += "\\n" + line.text;
      scan_byte_anomalies(line.text, req.anomalies);
      if (!line.terminated) return req;
      continue;
    }

    RawHeader h = parse_header_line(line);
    if (starts_with_ws && first_header) {
      add_anomaly(h.anomalies, Anomaly::kLeadingHeaderWs);
    }
    req.anomalies |= h.anomalies;
    req.headers.push_back(std::move(h));
    first_header = false;
    if (!line.terminated) return req;
  }

  req.after_headers.assign(raw.substr(pos));
  return req;
}

RawResponse lex_response(std::string_view raw) {
  RawResponse out;
  RawRequest as_request = reference::lex_request(raw);
  out.headers = std::move(as_request.headers);
  out.after_headers = std::move(as_request.after_headers);
  out.anomalies = as_request.anomalies;

  const std::string& raw_line = as_request.line.raw;
  std::size_t first_sp = raw_line.find(' ');
  if (first_sp == std::string::npos) return out;
  std::string_view version_token =
      std::string_view(raw_line).substr(0, first_sp);
  if (version_token.size() == 8 && version_token.substr(0, 5) == "HTTP/" &&
      version_token[6] == '.') {
    out.version = Version{version_token[5] - '0', version_token[7] - '0'};
  }
  std::size_t second_sp = raw_line.find(' ', first_sp + 1);
  std::string_view status_token =
      second_sp == std::string::npos
          ? std::string_view(raw_line).substr(first_sp + 1)
          : std::string_view(raw_line).substr(first_sp + 1,
                                              second_sp - first_sp - 1);
  out.status = parse_status_code(status_token);
  if (second_sp != std::string::npos) {
    out.reason = raw_line.substr(second_sp + 1);
  }
  return out;
}

ResponseFraming response_framing(const RawResponse& response,
                                 Method request_method) {
  ResponseFraming framing;
  const int status = response.status;
  if (request_method == Method::kHead || (status >= 100 && status < 200) ||
      status == 204 || status == 304) {
    framing.has_body = false;
    return framing;
  }
  if (const RawHeader* te = find_first_old(response, "transfer-encoding")) {
    auto items = split_list(te->value);
    if (!items.empty() && iequals(items.back(), "chunked")) {
      framing.chunked = true;
      return framing;
    }
  }
  if (const RawHeader* cl = find_first_old(response, "content-length")) {
    framing.content_length =
        parse_content_length_strict(trim_ows(cl->value));
    if (framing.content_length) return framing;
  }
  framing.until_close = true;
  return framing;
}

FramedResponse frame_first_response(std::string_view raw,
                                    Method request_method) {
  FramedResponse out;
  out.head = reference::lex_response(raw);
  if (!out.head.status_line_valid()) return out;
  out.interim = out.head.status >= 100 && out.head.status < 200;

  ResponseFraming framing = reference::response_framing(out.head, request_method);
  const std::string& payload = out.head.after_headers;
  if (!framing.has_body) {
    out.leftover = payload;
    out.complete = true;
    return out;
  }
  if (framing.chunked) {
    ChunkResult r = reference::decode_chunked(payload, ChunkPolicy{});
    if (r.ok) {
      out.body = r.body;
      out.leftover = r.leftover;
      out.complete = true;
    }
    return out;
  }
  if (framing.content_length) {
    if (payload.size() < *framing.content_length) return out;  // incomplete
    out.body = payload.substr(0, static_cast<std::size_t>(
                                     *framing.content_length));
    out.leftover = payload.substr(static_cast<std::size_t>(
        *framing.content_length));
    out.complete = true;
    return out;
  }
  // read-until-close: everything that arrived is the body.
  out.body = payload;
  out.complete = true;
  return out;
}

ChunkResult decode_chunked(std::string_view in, const ChunkPolicy& policy) {
  ChunkResult r;
  std::size_t pos = 0;
  while (true) {
    LineRead line = read_line(in, pos);
    if (!line.found) {
      r.incomplete = true;
      r.error = "input ended inside chunk-size line";
      return r;
    }
    if (line.bare_lf && !policy.allow_bare_lf) {
      r.error = "bare LF in chunk framing";
      return r;
    }
    pos = line.next;

    // Split size token from extension / garbage.
    std::string_view size_line{line.text};
    std::string_view size_token = size_line;
    std::string_view tail;
    std::size_t semi = size_line.find(';');
    if (semi != std::string_view::npos) {
      size_token = size_line.substr(0, semi);
      tail = size_line.substr(semi);
    }
    size_token = trim_ows(size_token);

    std::optional<std::uint64_t> size;
    bool overflowed = false;
    if (policy.wrapping_size || policy.lenient_size_line) {
      // Scan leading hex digits; wrap or truncate per policy.
      std::size_t digits = 0;
      while (digits < size_token.size() && is_hex(size_token[digits])) ++digits;
      if (digits == 0) {
        r.error = "chunk-size has no hex digits";
        return r;
      }
      if (digits < size_token.size() && !policy.lenient_size_line) {
        r.error = "garbage after chunk-size";
        return r;
      }
      unsigned wrap = policy.wrapping_size ? policy.wrap_bits : 64;
      size = parse_chunk_size_wrapping(size_token.substr(0, digits), wrap);
      // Detect that wrapping actually lost information.
      auto strict = parse_chunk_size_strict(size_token.substr(0, digits));
      overflowed = !strict || (size && *strict != *size);
      if (digits < size_token.size()) overflowed = true;
    } else {
      size = parse_chunk_size_strict(size_token);
      if (!size) {
        r.error = "invalid chunk-size";
        return r;
      }
      if (!tail.empty() && !policy.allow_extensions) {
        r.error = "chunk extension not allowed";
        return r;
      }
    }
    if (!size) {
      r.error = "invalid chunk-size";
      return r;
    }
    r.size_overflowed = r.size_overflowed || overflowed;
    if (*size > policy.max_chunk_size) {
      r.error = "chunk-size exceeds implementation limit";
      return r;
    }
    r.chunk_sizes.push_back(*size);

    if (overflowed && policy.wrapping_size && *size != 0) {
      // Repair mode: take the bytes up to the next line terminator as data.
      LineRead data_line = read_line(in, pos);
      if (!data_line.found) {
        r.incomplete = true;
        r.error = "input ended inside repaired chunk-data";
        return r;
      }
      r.body += data_line.text;
      pos = data_line.next;
      continue;
    }

    if (*size == 0) {
      // Trailer section: header lines until an empty line.
      while (true) {
        LineRead trailer = read_line(in, pos);
        if (!trailer.found) {
          r.incomplete = true;
          r.error = "input ended inside trailer section";
          return r;
        }
        if (trailer.bare_lf && !policy.allow_bare_lf) {
          r.error = "bare LF in trailer";
          return r;
        }
        pos = trailer.next;
        if (trailer.text.empty()) break;
      }
      r.ok = true;
      r.leftover.assign(in.substr(pos));
      return r;
    }

    if (pos + *size > in.size()) {
      r.incomplete = true;
      r.error = "input ended inside chunk-data";
      return r;
    }
    std::string_view data = in.substr(pos, static_cast<std::size_t>(*size));
    std::size_t nul_at = data.find('\0');
    if (nul_at != std::string_view::npos) {
      r.saw_nul = true;
      if (policy.reject_nul_in_data) {
        r.error = "NUL byte in chunk-data";
        return r;
      }
      if (policy.nul_terminates_body) {
        r.ok = true;
        r.body.append(data.substr(0, nul_at));
        r.leftover.assign(in.substr(pos + nul_at + 1));
        r.error = "body terminated at NUL byte";
        return r;
      }
    }
    r.body.append(data);
    pos += static_cast<std::size_t>(*size);

    // CRLF after chunk-data.
    bool crlf_ok = false;
    if (pos + 1 < in.size() && in[pos] == '\r' && in[pos + 1] == '\n') {
      pos += 2;
      crlf_ok = true;
    } else if (pos < in.size() && in[pos] == '\n' && policy.allow_bare_lf) {
      pos += 1;
      crlf_ok = true;
    }
    if (!crlf_ok) {
      const bool crlf_may_follow =
          pos >= in.size() || (pos + 1 >= in.size() && in[pos] == '\r');
      if (crlf_may_follow) {
        r.incomplete = true;
        r.error = "input ended before chunk-data CRLF";
        return r;
      }
      if (policy.require_crlf_after_data) {
        r.error = "chunk-data not followed by CRLF";
        return r;
      }
      std::size_t lf = in.find('\n', pos);
      if (lf == std::string_view::npos) {
        r.incomplete = true;
        r.error = "resync failed: no further LF";
        return r;
      }
      pos = lf + 1;
    }
  }
}

}  // namespace hdiff::http::reference
