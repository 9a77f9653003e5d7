// The durable-record codec (core/record.h): strict decimals, the shared
// line framing, and one table of malformed inputs across every format that
// reads through it — spec-v1, hdiff-stream-v1, hdiff-campaign-state-v1,
// hdiff-shard-result-v1 and flight.events lines.  Each must reject cleanly,
// never crash and never load as something else.
#include "core/record.h"

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/shard.h"
#include "campaign/store.h"
#include "core/export.h"
#include "serve/flight.h"
#include "stream/model.h"

namespace hdiff::core {
namespace {

namespace fs = std::filesystem;

// ---- integers, hashes, hex --------------------------------------------------

TEST(RecordDecimal, AcceptsExactlyWhatToStringWrites) {
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_dec("0", &u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(parse_dec("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  std::int64_t i = 0;
  EXPECT_TRUE(parse_dec("-9223372036854775808", &i));
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(parse_dec("-3", &i));
  EXPECT_EQ(i, -3);
  for (std::uint64_t v : {0ull, 7ull, 10ull, 4242ull, 18446744073709551615ull}) {
    ASSERT_TRUE(parse_dec(std::to_string(v), &u)) << v;
    EXPECT_EQ(u, v);
  }
}

TEST(RecordDecimal, RejectsEverythingElse) {
  std::uint64_t u = 99;
  for (const char* bad : {"", "x", "1x", "x1", " 1", "1 ", "+1", "-1", "01",
                          "00", "-0", "0x10", "1.0", "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(parse_dec(bad, &u)) << '"' << bad << '"';
  }
  EXPECT_EQ(u, 99u);  // untouched on failure
  std::int64_t i = 0;
  for (const char* bad : {"-", "+5", "-0", "-01", "9223372036854775808",
                          "-9223372036854775809"}) {
    EXPECT_FALSE(parse_dec(bad, &i)) << '"' << bad << '"';
  }
  std::uint32_t narrow = 0;
  EXPECT_TRUE(parse_dec("4294967295", &narrow));
  EXPECT_FALSE(parse_dec("4294967296", &narrow));  // fits the target type
  int status = 0;
  EXPECT_FALSE(parse_dec("2147483648", &status));
}

TEST(RecordHash, Hex16RendersFnv1a64AndTheHashContinues) {
  EXPECT_EQ(hex16(fnv1a64("")), "cbf29ce484222325");
  EXPECT_EQ(hex16(0), "0000000000000000");
  EXPECT_EQ(hex16(0xabcull), "0000000000000abc");
  EXPECT_EQ(fnv1a64("foobar"), fnv1a64("bar", fnv1a64("foo")));
}

TEST(RecordHex, FieldEncodingRoundTrips) {
  EXPECT_EQ(field_enc(""), "-");
  EXPECT_EQ(field_enc(std::string("\0 \n", 3)), "00200a");
  std::string out = "stale";
  ASSERT_TRUE(field_dec("-", &out));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(field_dec("00200a", &out));
  EXPECT_EQ(out, std::string("\0 \n", 3));
  EXPECT_FALSE(field_dec("0", &out));
  EXPECT_FALSE(field_dec("zz", &out));
}

// ---- framing ------------------------------------------------------------------

TEST(RecordFraming, SplitsKeyAndSingleSpacedFields) {
  Record line;
  ASSERT_TRUE(line.parse("mh=61 0 7"));
  EXPECT_EQ(line.key(), "mh");
  EXPECT_EQ(line.value(), "61 0 7");
  ASSERT_EQ(line.size(), 3u);
  EXPECT_EQ(line.field(2), "7");
  EXPECT_EQ(line.field(3), "");  // past the end
  ASSERT_TRUE(line.parse("config_sig="));
  EXPECT_EQ(line.size(), 0u);
  for (const char* bad : {"", "novalue", "=x", "k=a  b", "k= a", "k=a "}) {
    EXPECT_FALSE(line.parse(bad)) << '"' << bad << '"';
  }
}

TEST(RecordFraming, ReaderChecksHeaderNewlinesAndEndMarker) {
  RecordReader ok("fmt 3\nk=v\nend-fmt\n");
  ASSERT_TRUE(ok.header("fmt"));
  EXPECT_EQ(ok.record().field(0), "3");
  ASSERT_TRUE(ok.next());
  EXPECT_EQ(ok.record().key(), "k");
  EXPECT_TRUE(ok.end("end-fmt"));
  EXPECT_TRUE(ok.done());

  EXPECT_FALSE(RecordReader("fmtx\n").header("fmt"));
  EXPECT_FALSE(RecordReader("fmt \n").header("fmt"));
  EXPECT_FALSE(RecordReader("fmt").header("fmt"));  // no final newline

  RecordReader torn("fmt\nk=v");
  ASSERT_TRUE(torn.header("fmt"));
  EXPECT_FALSE(torn.next());
  EXPECT_FALSE(torn.ok());

  RecordReader empty_line("fmt\n\nk=v\n");
  ASSERT_TRUE(empty_line.header("fmt"));
  EXPECT_FALSE(empty_line.next());
  EXPECT_FALSE(empty_line.ok());
  EXPECT_TRUE(empty_line.next());  // the bad line was consumed

  RecordReader trailing("fmt\nend-fmt\nx\n");
  ASSERT_TRUE(trailing.header("fmt"));
  EXPECT_FALSE(trailing.end("end-fmt"));
}

// ---- writer -------------------------------------------------------------------

TEST(RecordWriter, OutputReadsBackThroughTheReader) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  RecordWriter w;
  w.header("fmt").dec(std::size_t{2}).token("tok");
  w.line("empty");
  w.line("n").dec(kMin).dec(kMax).dec(0).flag(true).flag(false);
  w.line("b").bytes("").bytes(std::string("\0 \n", 3));
  w.header("end-fmt");
  const std::string text = w.take();
  EXPECT_EQ(text,
            "fmt 2 tok\nempty=\nn=-9223372036854775808 18446744073709551615 "
            "0 1 0\nb=- 00200a\nend-fmt\n");

  RecordReader r(text);
  ASSERT_TRUE(r.header("fmt"));
  ASSERT_EQ(r.record().size(), 2u);
  EXPECT_EQ(r.record().field(1), "tok");
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.record().key(), "empty");
  EXPECT_EQ(r.record().size(), 0u);
  ASSERT_TRUE(r.next());
  std::int64_t min = 0;
  std::uint64_t max = 0;
  bool set = false, clear = true;
  EXPECT_TRUE(r.record().dec(0, &min));
  EXPECT_EQ(min, kMin);
  EXPECT_TRUE(r.record().dec(1, &max));
  EXPECT_EQ(max, kMax);
  EXPECT_TRUE(r.record().flag(3, &set) && r.record().flag(4, &clear));
  EXPECT_TRUE(set);
  EXPECT_FALSE(clear);
  ASSERT_TRUE(r.next());
  std::string empty = "stale", bytes;
  EXPECT_TRUE(r.record().bytes(0, &empty));
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(r.record().bytes(1, &bytes));
  EXPECT_EQ(bytes, std::string("\0 \n", 3));
  EXPECT_TRUE(r.end("end-fmt"));
}

TEST(RecordWriter, TakeOnAnEmptyWriterIsEmptyAndTakeStartsOver) {
  RecordWriter w;
  EXPECT_EQ(w.take(), "");
  w.line("k").token("v");
  EXPECT_EQ(w.take(), "k=v\n");
  EXPECT_EQ(w.take(), "");
  w.line("k");
  EXPECT_EQ(w.take(), "k=\n");
}

// ---- one malformed-input table across every format ---------------------------

enum class Format { kSpec, kStream, kState, kShard, kFlight };

std::string replaced(std::string text, std::string_view from,
                     std::string_view to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

std::string without_final_newline(std::string text) {
  text.pop_back();
  return text;
}

std::string spec_text() {
  http::RequestSpec spec = http::make_get("a.example", "/x");
  spec.add("X-Test", "v");
  return serialize_spec(spec);
}

std::string stream_text() {
  return stream::serialize_stream(
      stream::make_stream({http::make_get("a.example", "/one")}));
}

std::string state_text() {
  return "hdiff-campaign-state-v1\n"
         "config_sig=cfg\n"
         "rounds_completed=2\n"
         "arm=0 header-repeat 4 1 2\n"
         "finding=1 00000000000000aa 485253 - - - 6161\n";
}

std::string shard_text() {
  campaign::ShardResult result;
  result.round = 3;
  result.shard = 1;
  result.shards = 4;
  result.config_sig = "cfg";
  result.metrics.gauges = {{"g", -2}};
  result.trace_pid = 7;
  campaign::CaseOutcome oc;
  oc.executed = true;
  oc.signatures.push_back({"HRS", {"a->b"}});
  result.outcomes[2] = oc;
  return campaign::render_shard_result(result);
}

std::string flight_text() {
  serve::FlightEvent event;
  event.seq = 5;
  event.ts_ms = 10;
  event.kind = "spawn";
  event.round = 1;
  return serve::render_flight_event(event);
}

/// Whether `text` loads as `format`.  The checkpoint goes through a real
/// state dir, since parse_state is reached only by load.
bool loads(Format format, const std::string& text) {
  switch (format) {
    case Format::kSpec: {
      http::RequestSpec spec;
      return deserialize_spec(text, &spec);
    }
    case Format::kStream: {
      stream::RequestStream s;
      return stream::deserialize_stream(text, &s);
    }
    case Format::kState: {
      const fs::path dir = fs::temp_directory_path() /
                           ("hdiff-record-test-" + std::to_string(::getpid()));
      fs::create_directories(dir);
      std::ofstream(dir / "campaign.state", std::ios::binary) << text;
      campaign::StateStore store(dir.string());
      const bool ok = store.load_readonly();
      fs::remove_all(dir);
      return ok;
    }
    case Format::kShard: {
      campaign::ShardResult result;
      return campaign::parse_shard_result(text, &result);
    }
    case Format::kFlight: {
      serve::FlightEvent event;
      return serve::parse_flight_event(text, &event);
    }
  }
  return false;
}

struct Malformed {
  Format format;
  std::string text;
  const char* why;
};

TEST(RecordFormats, ValidBasesLoad) {
  EXPECT_TRUE(loads(Format::kSpec, spec_text()));
  EXPECT_TRUE(loads(Format::kStream, stream_text()));
  EXPECT_TRUE(loads(Format::kState, state_text()));
  EXPECT_TRUE(loads(Format::kShard, shard_text()));
  EXPECT_TRUE(loads(Format::kFlight, flight_text()));
}

TEST(RecordFormats, EveryMalformedInputRejects) {
  const std::string spec = spec_text();
  const std::string stream = stream_text();
  const std::string state = state_text();
  const std::string shard = shard_text();
  const std::string flight = flight_text();
  const std::vector<Malformed> table = {
      // Non-digit integers.
      {Format::kStream, replaced(stream, " 1\n", " x\n"), "count x"},
      {Format::kState, replaced(state, "=2\n", "=x\n"), "rounds x"},
      {Format::kState, replaced(state, " 4 1 2", " 4 one 2"), "arm novel"},
      {Format::kShard, replaced(shard, "round=3", "round=x"), "round x"},
      {Format::kShard, replaced(shard, "round=3", "round=3x"), "round 3x"},
      {Format::kShard, replaced(shard, "tpid=7", "tpid=0x7"), "tpid hex"},
      {Format::kFlight, replaced(flight, "ev=5", "ev=five"), "seq five"},
      // Overflowing integers.
      {Format::kStream, replaced(stream, " 1\n", " 18446744073709551617\n"),
       "count 2^64+1"},
      {Format::kState,
       replaced(state, "=2\n", "=18446744073709551616\n"), "rounds 2^64"},
      {Format::kShard, replaced(shard, "round=3", "round=18446744073709551616"),
       "round 2^64"},
      {Format::kShard, replaced(shard, "tpid=7", "tpid=4294967296"),
       "tpid past uint32"},
      {Format::kShard, replaced(shard, "mg=67 -2", "mg=67 9223372036854775808"),
       "gauge past int64"},
      {Format::kFlight, replaced(flight, "ev=5", "ev=18446744073709551616"),
       "seq 2^64"},
      // Signed, sign-prefixed and zero-padded integers.
      {Format::kStream, replaced(stream, " 1\n", " -1\n"), "count -1"},
      {Format::kStream, replaced(stream, " 1\n", " 01\n"), "count 01"},
      {Format::kState, replaced(state, "=2\n", "=-2\n"), "rounds -2"},
      {Format::kState, replaced(state, "=2\n", "=+2\n"), "rounds +2"},
      {Format::kShard, replaced(shard, "round=3", "round=-3"), "round -3"},
      {Format::kShard, replaced(shard, "round=3", "round=03"), "round 03"},
      {Format::kShard, replaced(shard, "mg=67 -2", "mg=67 -0"), "gauge -0"},
      {Format::kFlight, replaced(flight, "ev=5", "ev=-5"), "seq -5"},
      // Empty lines.
      {Format::kSpec, replaced(spec, "spec-v1\n", "spec-v1\n\n"), "empty"},
      {Format::kStream, stream + "\n", "empty line after the end"},
      {Format::kState, replaced(state, "cfg\n", "cfg\n\n"), "empty"},
      {Format::kShard, replaced(shard, "round=3\n", "round=3\n\n"), "empty"},
      {Format::kFlight, "", "empty"},
      // Double, leading and trailing spaces.
      {Format::kSpec, replaced(spec, "h=", "h= "), "leading space"},
      {Format::kStream, replaced(stream, "-v1 1", "-v1  1"), "double space"},
      {Format::kState, replaced(state, "0 header", "0  header"), "double"},
      {Format::kState, replaced(state, "=2\n", "=2 \n"), "trailing space"},
      {Format::kShard, replaced(shard, "shard=1 4", "shard=1  4"), "double"},
      {Format::kFlight, replaced(flight, "ev=5 ", "ev=5  "), "double space"},
      // A missing final newline.
      {Format::kSpec, without_final_newline(spec), "no final newline"},
      {Format::kStream, without_final_newline(stream), "no final newline"},
      {Format::kState, without_final_newline(state), "no final newline"},
      {Format::kShard, without_final_newline(shard), "no final newline"},
      // Bytes after an end marker.
      {Format::kStream, stream + "x", "byte after end-stream"},
      {Format::kStream, stream + "msg=-\n", "line after end-stream"},
      {Format::kShard, shard + "x", "byte after end="},
      {Format::kShard, shard + "round=3\n", "line after end="},
      // Lines out of the format's key table or order.
      {Format::kSpec, replaced(spec, "method=", "verb="), "unknown key"},
      {Format::kSpec, replaced(spec, "target=", "method="), "repeated key"},
      {Format::kState, state + "bogus=1\n", "unknown key"},
      {Format::kShard, replaced(shard, "case=2 0 1", "case=2 0 2"),
       "a signature line short"},
      {Format::kShard, replaced(shard, "case=2 0 1", "case=2 2 1"),
       "quarantine flag 2"},
      {Format::kFlight, "ev=1 2 6b696e64 -", "four fields"},
  };
  for (const Malformed& row : table) {
    EXPECT_FALSE(loads(row.format, row.text))
        << row.why << ":\n" << row.text;
  }
}

// ---- one regression per reader defect --------------------------------------

TEST(RecordRegression, HistogramBoundCountThatWrapsIsRejected) {
  // 4 + n + n + 1 wraps to 5 for n = 2^63, which once passed the field
  // count check and then indexed far past the fields.
  const std::string text =
      "hdiff-shard-result-v1\n"
      "mh=61 0 0 9223372036854775808 7\n"
      "end=0\n";
  campaign::ShardResult result;
  EXPECT_FALSE(campaign::parse_shard_result(text, &result));
}

TEST(RecordRegression, NonDecimalShardRoundIsRejected) {
  // round=x once parsed as round 0.
  campaign::ShardResult result;
  EXPECT_FALSE(campaign::parse_shard_result(
      "hdiff-shard-result-v1\nround=x\nend=0\n", &result));
  EXPECT_TRUE(campaign::parse_shard_result(
      "hdiff-shard-result-v1\nround=0\nend=0\n", &result));
}

TEST(RecordRegression, WrappedStreamCountIsRejected) {
  // 2^64 + 1 once wrapped to a count of 1 and loaded the one message.
  const std::string one = stream_text();
  ASSERT_EQ(one.find("hdiff-stream-v1 1\n"), 0u);
  stream::RequestStream parsed;
  ASSERT_TRUE(stream::deserialize_stream(one, &parsed));
  EXPECT_FALSE(stream::deserialize_stream(
      "hdiff-stream-v1 18446744073709551617\n" + one.substr(one.find('\n') + 1),
      &parsed));
}

TEST(RecordRegression, NonNumericAssertStatusRejectsTheCorpus) {
  // A bare std::stoi once threw out of import_test_cases_json.
  const std::string corpus =
      "{\"format\":\"hdiff-test-corpus-v1\",\"count\":1,\"cases\":[{"
      "\"uuid\":\"u\",\"raw_hex\":\"\",\"assert_status\":\"x\"}]}";
  std::vector<TestCase> cases;
  EXPECT_FALSE(import_test_cases_json(corpus, &cases));
  EXPECT_FALSE(import_test_cases_json(
      replaced(corpus, "\"x\"", "\"99999999999\""), &cases));
  ASSERT_TRUE(import_test_cases_json(replaced(corpus, "\"x\"", "\"400\""),
                                     &cases));
  ASSERT_EQ(cases.size(), 1u);
  ASSERT_TRUE(cases[0].assertion.has_value());
  EXPECT_EQ(cases[0].assertion->expect_status, 400);
}

}  // namespace
}  // namespace hdiff::core
