// Differential parity suite for the zero-copy parse path (http/view.h).
//
// The owned lexers are thin materializing wrappers over the view parsers;
// `http::reference` keeps a verbatim copy of the historical implementation
// as the oracle.  These tests fuzz corpus messages and deterministic random
// mutants through both and assert every observable field — request/response
// structure, anomaly bits, body framing, chunked decoding — is identical.
// They are part of the tier-1 suite and also run under the asan-ubsan and
// tsan presets, where the borrow discipline of the views is what is really
// under test.
#include "http/view.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/probes.h"
#include "http/chunked.h"
#include "http/lexer.h"
#include "http/response.h"
#include "reference.h"

namespace hdiff::http {
namespace {

void expect_headers_eq(const std::vector<RawHeader>& got,
                       const std::vector<RawHeader>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name) << "header " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "header " << i;
    EXPECT_EQ(got[i].raw_line, want[i].raw_line) << "header " << i;
    EXPECT_EQ(got[i].anomalies, want[i].anomalies) << "header " << i;
    EXPECT_EQ(got[i].normalized_name(), want[i].normalized_name())
        << "header " << i;
  }
}

void expect_request_eq(const RawRequest& got, const RawRequest& want) {
  EXPECT_EQ(got.line.method_token, want.line.method_token);
  EXPECT_EQ(got.line.target, want.line.target);
  EXPECT_EQ(got.line.version_token, want.line.version_token);
  EXPECT_EQ(got.line.raw, want.line.raw);
  EXPECT_EQ(got.line.anomalies, want.line.anomalies);
  expect_headers_eq(got.headers, want.headers);
  EXPECT_EQ(got.after_headers, want.after_headers);
  EXPECT_EQ(got.anomalies, want.anomalies);
}

void expect_response_eq(const RawResponse& got, const RawResponse& want) {
  EXPECT_EQ(got.version, want.version);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.reason, want.reason);
  expect_headers_eq(got.headers, want.headers);
  EXPECT_EQ(got.after_headers, want.after_headers);
  EXPECT_EQ(got.anomalies, want.anomalies);
}

void expect_chunk_eq(const ChunkResult& got, const ChunkResult& want) {
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.incomplete, want.incomplete);
  EXPECT_EQ(got.size_overflowed, want.size_overflowed);
  EXPECT_EQ(got.saw_nul, want.saw_nul);
  EXPECT_EQ(got.body, want.body);
  EXPECT_EQ(got.leftover, want.leftover);
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.chunk_sizes, want.chunk_sizes);
}

const std::vector<ChunkPolicy>& chunk_policies() {
  static const std::vector<ChunkPolicy> policies = {
      {},
      {.nul_terminates_body = true},
      {.lenient_size_line = true,
       .require_crlf_after_data = false,
       .allow_bare_lf = true},
      {.wrapping_size = true, .wrap_bits = 16, .reject_nul_in_data = true},
  };
  return policies;
}

// Handcrafted corpus: every anomaly family, chunked edge cases, obs-fold,
// unicode splices, NULs, pipelining, responses of every framing class.
const std::vector<std::string>& handcrafted() {
  static const std::vector<std::string> corpus = {
      "",
      "\r\n",
      "GET / HTTP/1.1\r\nHost: a\r\n\r\n",
      "GET /\xe2\x80\xa8/u HTTP/1.1\r\nHost: a\r\n\r\n",
      "POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello",
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n0\r\n\r\nGET /next HTTP/1.1\r\n\r\n",
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5;ext=1\r\nhello\r\n0\r\nTrailer: t\r\n\r\n",
      "GET / HTTP/1.1\nHost: bare-lf\n\n",
      "GET / HTTP/1.1\r\nHost: a\r\n Folded: continuation\r\n\r\n",
      "GET / HTTP/1.1\r\nX: first\r\n\tsecond\r\n\tthird\r\n\r\n",
      "GET / HTTP/1.1\r\nBad Name: v\r\nName : ws-colon\r\n\r\n",
      "GET / HTTP/1.1\r\nNoColonHere\r\n: emptyname\r\n\r\n",
      "GET  /  HTTP/1.1 extra parts\r\n\r\n",
      "GET /\r\n\r\n",
      "GET / HTTP/9.9.9\r\n\r\n",
      "GET / HTTP/1.1\r\nTrunc",
      std::string("GET /\0nul HTTP/1.1\r\nH: a\0b\r\n\r\n", 30),
      "GET /\x80\xff HTTP/1.1\r\nH\x81: v\xfe\r\n\r\n",
      "GET / HTTP/1.1\r\nCr\rinside: v\r\n\r\n",
      "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcDEF",
      "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n"
      "Content-Length: 0\r\n\r\n",
      "HTTP/1.1 204 No Content\r\nContent-Length: 9\r\n\r\nleftover!",
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\nabc\r\n0\r\n\r\nrest",
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n0\r\n\r\n",
      "HTTP/1.1 200 OK\r\nFolded:\r\n chunked\r\n\r\nbody",
      "HTTP/1.1 304 Not Modified\r\n\r\n",
      "HTTP/2.0 200 OK\r\n\r\nuntil-close body",
      "NOTHTTP 200 OK\r\n\r\n",
      "5\r\nhello\r\n0\r\n\r\n",
      std::string("5\r\nhel\0o\r\n0\r\n\r\n", 15),
      "ff5\r\nshort\r\n",
      "zz\r\njunk\r\n0\r\n\r\n",
      "ffffffffffffffffffff\r\nx\r\n0\r\n\r\n",
  };
  return corpus;
}

void expect_parity(const std::string& in) {
  expect_request_eq(lex_request(in), reference::lex_request(in));
  expect_response_eq(lex_response(in), reference::lex_response(in));
  const RawRequest want_req = reference::lex_request(in);
  EXPECT_EQ(sniff_method(in), method_from_token(want_req.line.method_token));
  std::string scratch;
  for (Method m : {Method::kGet, Method::kHead, Method::kPost}) {
    const FramedResponse want = reference::frame_first_response(in, m);
    const FramedResponse got = frame_first_response(in, m);
    expect_response_eq(got.head, want.head);
    EXPECT_EQ(got.body, want.body);
    EXPECT_EQ(got.leftover, want.leftover);
    EXPECT_EQ(got.complete, want.complete);
    EXPECT_EQ(got.interim, want.interim);

    const ResponseFraming want_framing =
        reference::response_framing(reference::lex_response(in), m);
    ResponseView view;
    parse_response_view(in, view);
    const ResponseFraming got_framing = response_framing(view, m, scratch);
    EXPECT_EQ(got_framing.has_body, want_framing.has_body);
    EXPECT_EQ(got_framing.chunked, want_framing.chunked);
    EXPECT_EQ(got_framing.content_length, want_framing.content_length);
    EXPECT_EQ(got_framing.until_close, want_framing.until_close);

    EXPECT_EQ(probe_first_response(in, m).complete, want.complete);
  }
  for (const ChunkPolicy& policy : chunk_policies()) {
    expect_chunk_eq(decode_chunked(in, policy),
                    reference::decode_chunked(in, policy));
  }
}

TEST(ViewParity, HandcraftedCorpusIsByteIdentical) {
  for (const std::string& in : handcrafted()) {
    SCOPED_TRACE(testing::PrintToString(in.substr(0, 80)));
    expect_parity(in);
  }
}

TEST(ViewParity, VerificationProbesAreByteIdentical) {
  for (const core::TestCase& tc : core::verification_probes()) {
    SCOPED_TRACE(tc.uuid);
    expect_parity(tc.raw);
  }
}

TEST(ViewParity, DeterministicFuzzMutantsAreByteIdentical) {
  // Fixed-LCG mutants of the handcrafted templates and of the verification
  // probes: replace / insert / delete bytes drawn from a delimiter-heavy
  // alphabet, then pure-random byte soup, so the same inputs are replayed
  // on every run (and under every sanitizer preset).
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  };
  const char alphabet[] = "\r\n\t :;,/\x00\x80\xff\x0bGEThost01af";
  const auto mutate = [&](const std::vector<std::string>& templates, int n,
                          const std::string& family) {
    for (int i = 0; i < n; ++i) {
      std::string m = templates[next() % templates.size()];
      const int edits = 1 + static_cast<int>(next() % 4);
      for (int e = 0; e < edits; ++e) {
        const char c = alphabet[next() % (sizeof alphabet - 1)];
        switch (next() % 3) {
          case 0:
            if (!m.empty()) m[next() % m.size()] = c;
            break;
          case 1:
            m.insert(m.begin() + static_cast<long>(next() % (m.size() + 1)),
                     c);
            break;
          default:
            if (!m.empty()) m.erase(next() % m.size(), 1);
            break;
        }
      }
      SCOPED_TRACE(family + " mutant " + std::to_string(i));
      expect_parity(m);
    }
  };
  mutate(handcrafted(), 400, "handcrafted");
  std::vector<std::string> probes;
  for (const core::TestCase& tc : core::verification_probes()) {
    probes.push_back(tc.raw);
  }
  mutate(probes, 200, "probe");
  for (int i = 0; i < 100; ++i) {
    std::string soup(next() % 160, '\0');
    for (char& c : soup) c = static_cast<char>(next() % 256);
    SCOPED_TRACE("byte soup " + std::to_string(i));
    expect_parity(soup);
  }
}

TEST(ViewParity, ViewsBorrowTheParsedBuffer) {
  // Every unfolded view must point into the original buffer — the zero-copy
  // property itself, not just value equality.
  const std::string raw =
      "POST /p HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\n\r\nhi";
  RequestView view;
  parse_request_view(raw, view);
  const auto in_buffer = [&](std::string_view sv) {
    return sv.empty() ||
           (sv.data() >= raw.data() && sv.data() + sv.size() <=
                                           raw.data() + raw.size());
  };
  EXPECT_TRUE(in_buffer(view.line.method_token));
  EXPECT_TRUE(in_buffer(view.line.target));
  EXPECT_TRUE(in_buffer(view.line.version_token));
  EXPECT_TRUE(in_buffer(view.line.raw));
  for (const HeaderView& h : view.headers) {
    EXPECT_TRUE(in_buffer(h.name));
    EXPECT_TRUE(in_buffer(h.value));
    EXPECT_TRUE(in_buffer(h.raw_line));
  }
  EXPECT_TRUE(in_buffer(view.after_headers));
}

TEST(ViewParity, ReusedViewReparsesToIdenticalState) {
  // clear() keeps capacity; re-parsing a different message must not leak
  // state from the previous parse.
  RequestView view;
  parse_request_view(
      "GET /long HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n X: fold\r\n\r\nbody",
      view);
  const std::string second = "PUT /s HTTP/1.0\r\nHost: b\r\n\r\n";
  view.clear();
  parse_request_view(second, view);
  expect_request_eq(view.materialize(), reference::lex_request(second));
}

TEST(ViewParity, FindFirstAndCountMatchOwnedLookups) {
  const std::string raw =
      "GET / HTTP/1.1\r\nHost: a\r\n hOsT : b\r\nX-Other: c\r\n"
      "Host\t: d\r\n\r\n";
  RequestView view;
  parse_request_view(raw, view);
  const RawRequest owned = reference::lex_request(raw);
  EXPECT_EQ(view.count("host"), owned.count("host"));
  EXPECT_EQ(view.count("x-other"), owned.count("x-other"));
  EXPECT_EQ(view.count("absent"), owned.count("absent"));
  const HeaderView* h = view.find_first("Host");
  const RawHeader* oh = owned.find_first("Host");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(oh, nullptr);
  // The owned lexer joins obs-fold continuations into the value; a
  // HeaderView keeps only the first-line segment, so the logical value
  // comes from joined_value().
  std::string scratch;
  EXPECT_EQ(view.joined_value(*h, scratch), oh->value);
  EXPECT_EQ(view.find_first("absent"), nullptr);
}

TEST(ViewParity, ScanChunkedRangesReconstructDecodeChunked) {
  const std::string in = "3\r\nabc\r\n4;e=x\r\ndefg\r\n0\r\n\r\nnext";
  for (const ChunkPolicy& policy : chunk_policies()) {
    ChunkScan scan;
    scan_chunked(in, policy, scan);
    const ChunkResult decoded = decode_chunked(in, policy);
    EXPECT_EQ(scan.ok, decoded.ok);
    EXPECT_EQ(scan.incomplete, decoded.incomplete);
    EXPECT_EQ(scan.size_overflowed, decoded.size_overflowed);
    EXPECT_EQ(scan.saw_nul, decoded.saw_nul);
    EXPECT_EQ(std::string(scan.error), decoded.error);
    EXPECT_EQ(scan.chunk_sizes, decoded.chunk_sizes);
    EXPECT_EQ(scan.body_size(), decoded.body.size());
    std::string body;
    for (const auto& [off, len] : scan.data) body += in.substr(off, len);
    EXPECT_EQ(body, decoded.body);
    if (decoded.ok) {
      EXPECT_EQ(in.substr(scan.leftover_begin), decoded.leftover);
    }
  }
}

}  // namespace
}  // namespace hdiff::http
