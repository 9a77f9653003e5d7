// Golden state: tests/data/record/state was written by an earlier build
// (a 3-round streams + coverage campaign whose last round ran under a
// FaultPlan, plus one shard result and one flight log).  It holds every
// line key those formats have, with a hdiff-campaign-state-v1 checkpoint
// and its corpus/ files.  tests/data/record/state-v2 is what that dir's
// first commit writes: a hdiff-campaign-state-v2 checkpoint and its
// campaign.log.  Old state must keep loading; v1 state must upgrade to the
// same campaign, and v2 state must re-save to the very same bytes.
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
const std::string kGoldenV2 = kGolden + "-v2";

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

/// A scratch copy of a golden dir, so load() and commits touch no
/// checked-in file.
std::string golden_copy(const std::string& tag,
                        const std::string& from = kGolden) {
  const fs::path dir = fs::temp_directory_path() /
                       ("hdiff-golden-" + std::to_string(::getpid()) + "-" + tag);
  fs::remove_all(dir);
  fs::copy(from, dir, fs::copy_options::recursive);
  return dir.string();
}

/// Load `dir` through a locked writer and commit its last round again.
void load_and_recommit(const std::string& dir, StateStore* out = nullptr) {
  StateStore store(dir);
  ASSERT_TRUE(store.acquire_lock()) << store.error();
  ASSERT_TRUE(store.load()) << store.error();
  ASSERT_GT(store.rounds_completed, 0u);
  ASSERT_TRUE(store.commit_round(store.rounds_completed - 1)) << store.error();
  if (out) {
    ASSERT_TRUE(out->load_readonly()) << out->error();
  }
}

/// The same campaign, field by field: what a v1 -> v2 upgrade must keep.
void expect_same_campaign(const StateStore& a, const StateStore& b) {
  EXPECT_EQ(a.config_sig, b.config_sig);
  EXPECT_EQ(a.rounds_completed, b.rounds_completed);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].hash, b.entries[i].hash);
    EXPECT_EQ(a.entries[i].provenance, b.entries[i].provenance);
    EXPECT_EQ(a.entries[i].spec, b.entries[i].spec);
  }
  ASSERT_EQ(a.stream_entries.size(), b.stream_entries.size());
  for (std::size_t i = 0; i < a.stream_entries.size(); ++i) {
    EXPECT_EQ(a.stream_entries[i].hash, b.stream_entries[i].hash);
    EXPECT_EQ(a.stream_entries[i].provenance, b.stream_entries[i].provenance);
    EXPECT_EQ(a.stream_entries[i].stream, b.stream_entries[i].stream);
  }
  EXPECT_EQ(a.arms, b.arms);
  EXPECT_EQ(a.stream_arms, b.stream_arms);
  EXPECT_EQ(a.coverage.sig, b.coverage.sig);
  EXPECT_EQ(a.coverage.productions.size(), b.coverage.productions.size());
  EXPECT_EQ(a.coverage.sites.size(), b.coverage.sites.size());
  EXPECT_EQ(a.coverage.bootstrap_covered, b.coverage.bootstrap_covered);
  EXPECT_EQ(a.coverage_weighting, b.coverage_weighting);
  EXPECT_EQ(a.covered, b.covered);
  EXPECT_EQ(a.gap_hits, b.gap_hits);
  ASSERT_EQ(a.retry_queue.size(), b.retry_queue.size());
  for (std::size_t i = 0; i < a.retry_queue.size(); ++i) {
    EXPECT_EQ(a.retry_queue[i].provenance, b.retry_queue[i].provenance);
    EXPECT_EQ(a.retry_queue[i].raw, b.retry_queue[i].raw);
    EXPECT_EQ(a.retry_queue[i].spec_text, b.retry_queue[i].spec_text);
    EXPECT_EQ(a.retry_queue[i].description, b.retry_queue[i].description);
  }
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(finding_jsonl(a.findings[i]), finding_jsonl(b.findings[i]));
  }
}

TEST(GoldenState, CoversEveryCheckpointKey) {
  const std::set<std::string> expected = {
      "config_sig", "rounds_completed", "covsig", "covweight", "covprod",
      "covsite",    "covboot",          "covered", "gaphit",   "entry",
      "sentry",     "arm",              "sarm",    "retry",    "finding"};
  EXPECT_EQ(keys_of(slurp(kGolden + "/campaign.state")), expected);
  EXPECT_EQ(keys_of(slurp(kGoldenV2 + "/campaign.state")),
            (std::set<std::string>{"config_sig", "rounds_completed", "log",
                                   "covsig", "covweight", "covprod",
                                   "covsite", "covboot", "covered", "gaphit",
                                   "arm", "sarm", "retry"}));
  EXPECT_EQ(keys_of(slurp(kGoldenV2 + "/campaign.log")),
            (std::set<std::string>{"entry", "sentry", "finding"}));
  EXPECT_EQ(keys_of(slurp(kGolden + "/shards/round-3-shard-1.result")),
            (std::set<std::string>{"round", "shard", "config_sig", "stats",
                                   "mc", "mg", "mh", "tpid", "tev", "case",
                                   "sig", "end"}));
}

TEST(GoldenState, V1LoadsAndItsFirstCommitWritesV2) {
  const std::string dir = golden_copy("upgrade");
  StateStore v1(dir);
  ASSERT_TRUE(v1.load_readonly()) << v1.error();
  EXPECT_FALSE(v1.retry_queue.empty());
  EXPECT_FALSE(v1.stream_entries.empty());
  EXPECT_FALSE(v1.gap_hits.empty());
  EXPECT_FALSE(v1.coverage.bootstrap_covered.empty());
  EXPECT_FALSE(v1.arms.empty());
  EXPECT_FALSE(v1.findings.empty());

  StateStore v2(dir);
  load_and_recommit(dir, &v2);
  expect_same_campaign(v1, v2);
  const StateStore paths(dir);
  EXPECT_EQ(slurp(paths.state_path()).rfind("hdiff-campaign-state-v2\n", 0),
            0u);
  EXPECT_EQ(slurp(paths.findings_path()), slurp(kGolden + "/findings.jsonl"));
  EXPECT_EQ(slurp(paths.state_path()), slurp(kGoldenV2 + "/campaign.state"));
  EXPECT_EQ(slurp(paths.log_path()), slurp(kGoldenV2 + "/campaign.log"));
  fs::remove_all(dir);
}

TEST(GoldenState, V2LoadsAndRecommitsByteIdentically) {
  const std::string dir = golden_copy("recommit-v2", kGoldenV2);
  StateStore v1(kGolden);  // a read-only load writes nothing
  ASSERT_TRUE(v1.load_readonly()) << v1.error();
  StateStore v2(dir);
  load_and_recommit(dir, &v2);
  expect_same_campaign(v1, v2);
  const StateStore paths(dir);
  EXPECT_EQ(slurp(paths.state_path()), slurp(kGoldenV2 + "/campaign.state"));
  EXPECT_EQ(slurp(paths.log_path()), slurp(kGoldenV2 + "/campaign.log"));
  EXPECT_EQ(slurp(paths.findings_path()),
            slurp(kGoldenV2 + "/findings.jsonl"));
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
