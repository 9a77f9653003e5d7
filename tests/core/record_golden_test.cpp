// Golden state: tests/data/record/state was written by an earlier build
// (a 3-round streams + coverage campaign whose last round ran under a
// FaultPlan, plus one shard result and one flight log).  It holds every
// line key those formats have.  Old state must keep loading, and re-save
// to the very same bytes.
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "campaign/shard.h"
#include "campaign/store.h"
#include "core/record.h"
#include "serve/flight.h"
#include "stream/model.h"

namespace hdiff::campaign {
namespace {

namespace fs = std::filesystem;

const std::string kGolden = HDIFF_RECORD_FIXTURES;

std::string slurp(const std::string& path) {
  std::string out;
  EXPECT_TRUE(core::read_file(path, &out)) << path;
  return out;
}

/// The set of line keys in `text` (the part before each line's '=').
std::set<std::string> keys_of(const std::string& text) {
  std::set<std::string> keys;
  core::RecordReader r(text);
  while (!r.done()) {
    if (r.next()) keys.emplace(r.record().key());
  }
  return keys;
}

/// A scratch copy of the golden dir, so load() and commits touch no
/// checked-in file.
std::string golden_copy(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("hdiff-golden-" + std::to_string(::getpid()) + "-" + tag);
  fs::remove_all(dir);
  fs::copy(kGolden, dir, fs::copy_options::recursive);
  return dir.string();
}

TEST(GoldenState, CoversEveryCheckpointKey) {
  const std::set<std::string> expected = {
      "config_sig", "rounds_completed", "covsig", "covweight", "covprod",
      "covsite",    "covboot",          "covered", "gaphit",   "entry",
      "sentry",     "arm",              "sarm",    "retry",    "finding"};
  EXPECT_EQ(keys_of(slurp(kGolden + "/campaign.state")), expected);
  EXPECT_EQ(keys_of(slurp(kGolden + "/shards/round-3-shard-1.result")),
            (std::set<std::string>{"round", "shard", "config_sig", "stats",
                                   "mc", "mg", "mh", "tpid", "tev", "case",
                                   "sig", "end"}));
}

TEST(GoldenState, LoadsAndRecommitsByteIdentically) {
  const std::string dir = golden_copy("recommit");
  StateStore store(dir);
  ASSERT_TRUE(store.acquire_lock()) << store.error();
  ASSERT_TRUE(store.load()) << store.error();
  EXPECT_FALSE(store.retry_queue.empty());
  EXPECT_FALSE(store.stream_entries.empty());
  EXPECT_FALSE(store.gap_hits.empty());
  EXPECT_FALSE(store.coverage.bootstrap_covered.empty());
  ASSERT_GT(store.rounds_completed, 0u);
  ASSERT_TRUE(store.commit_round(store.rounds_completed - 1)) << store.error();
  EXPECT_EQ(slurp(store.state_path()), slurp(kGolden + "/campaign.state"));
  EXPECT_EQ(slurp(store.findings_path()), slurp(kGolden + "/findings.jsonl"));
  store.release_lock();
  fs::remove_all(dir);
}

TEST(GoldenState, CorpusFilesReserializeToTheirOwnBytesAndAddress) {
  std::size_t cases = 0, streams = 0;
  for (const auto& f : fs::directory_iterator(kGolden + "/corpus")) {
    const std::string bytes = slurp(f.path().string());
    const std::string name = f.path().filename().string();
    if (f.path().extension() == ".case") {
      http::RequestSpec spec;
      ASSERT_TRUE(deserialize_spec(bytes, &spec)) << name;
      EXPECT_EQ(serialize_spec(spec), bytes) << name;
      EXPECT_EQ(content_address(spec) + ".case", name);
      ++cases;
    } else {
      ASSERT_EQ(f.path().extension(), ".stream") << name;
      stream::RequestStream s;
      ASSERT_TRUE(stream::deserialize_stream(bytes, &s)) << name;
      EXPECT_EQ(stream::serialize_stream(s), bytes) << name;
      EXPECT_EQ(stream_content_address(s) + ".stream", name);
      ++streams;
    }
  }
  EXPECT_GT(cases, 0u);
  EXPECT_GT(streams, 0u);
}

TEST(GoldenState, ShardResultAndFlightLinesRerenderByteIdentically) {
  const std::string result_bytes =
      slurp(kGolden + "/shards/round-3-shard-1.result");
  ShardResult result;
  ASSERT_TRUE(parse_shard_result(result_bytes, &result));
  EXPECT_EQ(render_shard_result(result), result_bytes);

  const std::string flight = slurp(serve::FlightRecorder::path(kGolden));
  std::size_t lines = 0;
  for (std::size_t at = 0; at < flight.size(); ++lines) {
    const std::size_t nl = flight.find('\n', at);
    ASSERT_NE(nl, std::string::npos);
    const std::string line = flight.substr(at, nl - at);
    serve::FlightEvent event;
    ASSERT_TRUE(serve::parse_flight_event(line, &event)) << line;
    EXPECT_EQ(serve::render_flight_event(event), line);
    at = nl + 1;
  }
  EXPECT_EQ(lines, 4u);

  const std::string dir = golden_copy("flight");
  serve::FlightRecorder recorder(dir);
  recorder.load();
  EXPECT_EQ(recorder.size(), lines);
  EXPECT_EQ(recorder.next_seq(), lines + 1);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hdiff::campaign
