// Persistent campaign state: spec text format round-trips byte-exotic
// specs, content addressing keys on the serialized form (not the wire
// concatenation), and the StateStore survives a commit/load cycle with the
// findings artifact healed back to the committed round.
#include "campaign/store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "abnf/parser.h"
#include "analysis/coverage.h"
#include "campaign/engine.h"
#include "campaign/fingerprint.h"
#include "core/probes.h"
#include "impls/products.h"

namespace hdiff::campaign {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::temp_directory_path() /
                       ("hdiff-store-test-" + std::to_string(::getpid()) +
                        "-" + tag + "-" + std::to_string(counter++));
  fs::remove_all(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

http::RequestSpec exotic_spec() {
  http::RequestSpec spec;
  spec.method = "PO ST";  // space inside a field must survive hex encoding
  spec.target = "/p?q=\x01\x7f";
  spec.version = "HTTP/1.1";
  spec.sep1 = "\t";
  spec.sep2 = "  ";
  spec.line_terminator = "\n";
  spec.headers_terminator = "\r\n";
  http::HeaderSpec h;
  h.name = "X-Bin";
  h.value = std::string("a\0b", 3);  // embedded NUL
  h.separator = " :\t";
  h.terminator = "\r\r\n";
  spec.headers.push_back(h);
  spec.add("Host", "origin.example");
  spec.body = std::string("len\0gth\xff", 8);
  return spec;
}

TEST(StoreTest, SerializeRoundTripsExoticBytes) {
  const http::RequestSpec spec = exotic_spec();
  http::RequestSpec back;
  ASSERT_TRUE(deserialize_spec(serialize_spec(spec), &back));
  EXPECT_EQ(back, spec);
}

TEST(StoreTest, SerializeRoundTripsEmptyFields) {
  http::RequestSpec spec;  // canonical GET /, no headers, no body
  spec.version = "";       // 0.9-style: empty version field
  http::RequestSpec back;
  ASSERT_TRUE(deserialize_spec(serialize_spec(spec), &back));
  EXPECT_EQ(back, spec);
}

TEST(StoreTest, DeserializeRejectsGarbage) {
  http::RequestSpec out;
  EXPECT_FALSE(deserialize_spec("", &out));
  EXPECT_FALSE(deserialize_spec("not-a-spec\n", &out));
}

TEST(StoreTest, ContentAddressSeparatesWireCollisions) {
  // Both specs concatenate to the identical wire bytes "GET / HTTP/1.1\r\n"
  // "X: a\r\nHost: h\r\n\r\n" — only the value/terminator split differs.
  http::RequestSpec a;
  a.add("X", "a");
  a.add("Host", "h");

  http::RequestSpec b = a;
  b.headers[0].value = "a\r";
  b.headers[0].terminator = "\n";

  ASSERT_EQ(a.to_wire(), b.to_wire());
  EXPECT_NE(content_address(a), content_address(b));
}

TEST(StoreTest, ContentAddressIsStableAndHex) {
  const http::RequestSpec spec = exotic_spec();
  const std::string addr = content_address(spec);
  EXPECT_EQ(addr.size(), 16u);
  EXPECT_EQ(addr, content_address(spec));
  EXPECT_EQ(addr, hex64(serialize_spec(spec)));
}

TEST(StoreTest, AddEntryIsIdempotentByHash) {
  const std::string dir = fresh_dir("idem");
  StateStore store(dir);
  ASSERT_TRUE(store.init("sig"));

  CorpusEntry entry;
  entry.spec = exotic_spec();
  entry.hash = content_address(entry.spec);
  entry.provenance = "seed:exotic";

  const std::size_t first = store.add_entry(entry);
  const std::size_t again = store.add_entry(entry);
  EXPECT_EQ(first, again);
  EXPECT_EQ(store.entries.size(), 1u);
  EXPECT_TRUE(store.has_entry(entry.hash));
  EXPECT_EQ(store.entry_index(entry.hash), first);
  EXPECT_EQ(store.entry_index("0000000000000000"), StateStore::npos);
  // add_entry only stages the file; the round's commit writes it.
  EXPECT_FALSE(fs::exists(store.corpus_path(entry.hash)));
  ASSERT_TRUE(store.commit_round(0)) << store.error();
  EXPECT_TRUE(fs::exists(store.corpus_path(entry.hash)));
  EXPECT_EQ(slurp(store.corpus_path(entry.hash)), serialize_spec(entry.spec));
  fs::remove_all(dir);
}

TEST(StoreTest, FailedCorpusWriteFailsTheCommitAndKeepsTheCheckpoint) {
  const std::string dir = fresh_dir("write-fail");
  StateStore store(dir);
  ASSERT_TRUE(store.init("sig"));
  CorpusEntry kept;
  kept.spec = http::make_get("origin.example");
  kept.hash = content_address(kept.spec);
  kept.provenance = "seed:get";
  store.add_entry(kept);
  ASSERT_TRUE(store.commit_round(0)) << store.error();
  const std::string committed = slurp(store.state_path());
  const std::string committed_findings = slurp(store.findings_path());

  // Swap corpus/ for a regular file: every open beneath it fails with
  // ENOTDIR (unlike chmod, this stops root too).
  const std::string corpus = dir + "/corpus";
  fs::rename(corpus, dir + "/corpus.aside");
  { std::ofstream(corpus) << "not a directory"; }

  CorpusEntry lost;
  lost.spec = exotic_spec();
  lost.hash = content_address(lost.spec);
  lost.provenance = "mutant:x:y";
  store.add_entry(lost);
  Finding f;
  f.round = 1;
  f.fingerprint = "00000000000000ee";
  f.detector = "HRS";
  f.provenance = lost.provenance;
  store.add_finding(f);
  EXPECT_FALSE(store.commit_round(1));
  EXPECT_NE(store.error().find(lost.hash), std::string::npos)
      << store.error();
  EXPECT_EQ(store.rounds_completed, 1u);

  // Neither the checkpoint nor the findings artifact moved, and the
  // previous checkpoint still loads.
  EXPECT_EQ(slurp(store.state_path()), committed);
  EXPECT_EQ(slurp(store.findings_path()), committed_findings);
  fs::remove(corpus);
  fs::rename(dir + "/corpus.aside", corpus);
  StateStore loaded(dir);
  ASSERT_TRUE(loaded.load()) << loaded.error();
  EXPECT_EQ(loaded.rounds_completed, 1u);
  ASSERT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.entries[0].hash, kept.hash);
  EXPECT_TRUE(loaded.findings.empty());
  EXPECT_FALSE(fs::exists(store.corpus_path(lost.hash)));

  fs::remove_all(dir);
}

TEST(StoreTest, CommitWritesStagedStreamFilesAndFindingsAtOnce) {
  const std::string dir = fresh_dir("stage");
  StateStore store(dir);
  store.set_io_jobs(4);
  ASSERT_TRUE(store.init("sig"));
  StreamEntry entry;
  entry.stream = stream::make_stream(
      {http::make_get("origin.example"), exotic_spec()});
  entry.hash = stream_content_address(entry.stream);
  entry.provenance = "stream-seed:pair";
  EXPECT_EQ(store.add_stream_entry(entry), store.add_stream_entry(entry));
  Finding f;
  f.round = 0;
  f.fingerprint = "00000000000000ff";
  f.detector = "stream-boundary-desync";
  f.provenance = entry.provenance;
  store.add_finding(f);
  EXPECT_FALSE(fs::exists(store.stream_corpus_path(entry.hash)));
  EXPECT_EQ(slurp(store.findings_path()), "");

  ASSERT_TRUE(store.commit_round(0)) << store.error();
  EXPECT_EQ(slurp(store.stream_corpus_path(entry.hash)),
            stream::serialize_stream(entry.stream));
  EXPECT_FALSE(fs::exists(store.stream_corpus_path(entry.hash) + ".tmp"));
  EXPECT_EQ(slurp(store.findings_path()), finding_jsonl(f) + "\n");

  // A second commit with nothing staged appends nothing.
  ASSERT_TRUE(store.commit_round(1)) << store.error();
  EXPECT_EQ(slurp(store.findings_path()), finding_jsonl(f) + "\n");
  StateStore loaded(dir);
  ASSERT_TRUE(loaded.load()) << loaded.error();
  ASSERT_EQ(loaded.stream_entries.size(), 1u);
  EXPECT_EQ(loaded.stream_entries[0].stream, entry.stream);
  fs::remove_all(dir);
}

TEST(StoreTest, CommitLoadRoundTripsEveryField) {
  const std::string dir = fresh_dir("roundtrip");
  StateStore store(dir);
  ASSERT_TRUE(store.init("cfg-sig-1"));

  CorpusEntry entry;
  entry.spec = exotic_spec();
  entry.hash = content_address(entry.spec);
  entry.provenance = "seed:exotic";
  store.add_entry(entry);

  store.arms[{0, "duplicate-header"}] = ArmStats{5, 2, 3};
  store.arms[{0, "unicode-in-value"}] = ArmStats{1, 0, 1};

  RetryEntry retry;
  retry.provenance = "seed:get";
  retry.raw = "GET / HTTP/1.1\r\nHost: h\r\n\r\n";
  retry.spec_text = serialize_spec(entry.spec);
  retry.description = "faulted twice";
  store.retry_queue.push_back(retry);

  Finding f;
  f.round = 0;
  f.fingerprint = "0123456789abcdef";
  f.detector = "HRS";
  f.vector = {"squid->iis", "ats->tomcat"};
  f.provenance = "seed:exotic";
  f.case_uuid = "camp-r0-1";
  f.description = "desc with \"quotes\" and \x01 bytes";
  store.add_finding(f);

  ASSERT_TRUE(store.commit_round(0)) << store.error();

  StateStore loaded(dir);
  ASSERT_TRUE(loaded.exists());
  ASSERT_TRUE(loaded.load()) << loaded.error();
  EXPECT_EQ(loaded.config_sig, "cfg-sig-1");
  EXPECT_EQ(loaded.rounds_completed, 1u);
  ASSERT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.entries[0].hash, entry.hash);
  EXPECT_EQ(loaded.entries[0].provenance, entry.provenance);
  EXPECT_EQ(loaded.entries[0].spec, entry.spec);

  ASSERT_EQ(loaded.arms.size(), 2u);
  const auto& arm = loaded.arms.at({0, "duplicate-header"});
  EXPECT_EQ(arm.attempts, 5u);
  EXPECT_EQ(arm.novel, 2u);
  EXPECT_EQ(arm.cursor, 3u);

  ASSERT_EQ(loaded.retry_queue.size(), 1u);
  EXPECT_EQ(loaded.retry_queue[0].provenance, retry.provenance);
  EXPECT_EQ(loaded.retry_queue[0].raw, retry.raw);
  EXPECT_EQ(loaded.retry_queue[0].spec_text, retry.spec_text);
  EXPECT_EQ(loaded.retry_queue[0].description, retry.description);

  ASSERT_EQ(loaded.findings.size(), 1u);
  EXPECT_EQ(loaded.findings[0].fingerprint, f.fingerprint);
  EXPECT_EQ(loaded.findings[0].vector, f.vector);
  EXPECT_EQ(loaded.findings[0].description, f.description);
  EXPECT_TRUE(loaded.known_fingerprint(f.fingerprint));

  // Re-committing the loaded image must reproduce the state bytes exactly
  // (this is what makes resume byte-identical).
  const std::string before = slurp(loaded.state_path());
  ASSERT_TRUE(loaded.commit_round(0));
  EXPECT_EQ(slurp(loaded.state_path()), before);

  fs::remove_all(dir);
}

analysis::CoveragePlan fixture_plan() {
  std::vector<std::string> errors;
  abnf::Grammar g = abnf::parse_rulelist(
      "root = a b\n"
      "a = \"ab\" / \"ac\"\n"
      "b = %x41-5A / %x50-60\n",
      "fixture", &errors);
  EXPECT_TRUE(errors.empty());
  auto plan = analysis::build_coverage_plan(g, {"root"});
  plan.bootstrap_covered = {plan.id_of("root")};
  return plan;
}

TEST(StoreTest, CoverageBlockRoundTripsThroughTheCheckpoint) {
  const std::string dir = fresh_dir("coverage");
  StateStore store(dir);
  ASSERT_TRUE(store.init("cfg"));
  store.coverage = fixture_plan();
  store.coverage_weighting = false;  // the non-default must survive
  store.covered = store.coverage.bootstrap_covered;
  store.covered.insert(0);
  store.gap_hits[1] = 7;
  ASSERT_TRUE(store.commit_round(0)) << store.error();

  StateStore loaded(dir);
  ASSERT_TRUE(loaded.load()) << loaded.error();
  ASSERT_TRUE(loaded.coverage_enabled());
  EXPECT_FALSE(loaded.coverage_weighting);
  EXPECT_EQ(loaded.coverage.sig, store.coverage.sig);
  ASSERT_EQ(loaded.coverage.productions.size(),
            store.coverage.productions.size());
  ASSERT_EQ(loaded.coverage.sites.size(), store.coverage.sites.size());
  for (std::size_t i = 0; i < loaded.coverage.sites.size(); ++i) {
    const auto& got = loaded.coverage.sites[i];
    const auto& want = store.coverage.sites[i];
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.rule, want.rule);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.overlap, want.overlap);
    EXPECT_EQ(got.witness, want.witness);
    EXPECT_EQ(got.rank, want.rank);
    EXPECT_EQ(got.related, want.related);  // the attribution cone
  }
  EXPECT_EQ(loaded.coverage.bootstrap_covered,
            store.coverage.bootstrap_covered);
  EXPECT_EQ(loaded.covered, store.covered);
  EXPECT_EQ(loaded.gap_hits, store.gap_hits);

  // Recommitting the loaded image must reproduce the state bytes exactly —
  // the resume contract.
  const std::string committed = slurp(store.state_path());
  ASSERT_TRUE(loaded.commit_round(0)) << loaded.error();
  EXPECT_EQ(slurp(loaded.state_path()), committed);
  EXPECT_NE(committed.find("covsig=" + store.coverage.sig),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(StoreTest, PreCoverageCheckpointLoadsWithCoverageDisabled) {
  // Checkpoints written before the coverage map existed carry no cov*
  // keys; they must keep loading, with coverage reported as disabled.
  const std::string dir = fresh_dir("precov");
  StateStore store(dir);
  ASSERT_TRUE(store.init("cfg"));
  ASSERT_TRUE(store.commit_round(0)) << store.error();
  EXPECT_EQ(slurp(store.state_path()).find("cov"), std::string::npos);

  StateStore loaded(dir);
  ASSERT_TRUE(loaded.load()) << loaded.error();
  EXPECT_FALSE(loaded.coverage_enabled());
  EXPECT_TRUE(loaded.covered.empty());
  EXPECT_TRUE(loaded.gap_hits.empty());
  fs::remove_all(dir);
}

TEST(StoreTest, CovsiteRejectsOutOfRangeReferences) {
  // A covsite naming a production id beyond the covprod list must be
  // refused at load, whether as the owner or in the attribution cone.
  const std::string dir = fresh_dir("badcov");
  StateStore store(dir);
  ASSERT_TRUE(store.init("cfg"));
  ASSERT_TRUE(store.commit_round(0)) << store.error();
  {
    std::ofstream out(store.state_path(), std::ios::binary);
    out << "hdiff-campaign-state-v1\nconfig_sig=cfg\nrounds_completed=1\n"
        << "covsig=x\ncovweight=1\ncovprod=0 1 root\n"
        << "covsite=9 1 2 f " << std::string(64, '0') << " 5\n";
  }
  StateStore loaded(dir);
  EXPECT_FALSE(loaded.load());
  EXPECT_NE(loaded.error().find("covsite"), std::string::npos);
  fs::remove_all(dir);
}

TEST(StoreTest, LoadTruncatesUncommittedFindingLines) {
  const std::string dir = fresh_dir("truncate");
  StateStore store(dir);
  ASSERT_TRUE(store.init("sig"));

  Finding f;
  f.round = 0;
  f.fingerprint = "00000000000000aa";
  f.detector = "HoT";
  f.vector = {"ats->nginx"};
  f.provenance = "seed:absolute";
  f.case_uuid = "camp-r0-0";
  f.description = "committed";
  store.add_finding(f);
  ASSERT_TRUE(store.commit_round(0));

  // Simulate the crash window: a round-1 finding line was appended but the
  // checkpoint rename never happened.
  {
    std::ofstream out(store.findings_path(), std::ios::app | std::ios::binary);
    Finding orphan = f;
    orphan.round = 1;
    orphan.fingerprint = "00000000000000bb";
    orphan.description = "uncommitted-orphan";
    out << finding_jsonl(orphan) << "\n";
  }
  ASSERT_NE(slurp(store.findings_path()).find("uncommitted-orphan"),
            std::string::npos);

  StateStore loaded(dir);
  ASSERT_TRUE(loaded.load()) << loaded.error();
  const std::string healed = slurp(loaded.findings_path());
  EXPECT_EQ(healed.find("uncommitted-orphan"), std::string::npos);
  EXPECT_NE(healed.find("committed"), std::string::npos);
  ASSERT_EQ(loaded.findings.size(), 1u);

  fs::remove_all(dir);
}

TEST(StoreTest, FindingJsonlIsOneRoundTaggedLine) {
  Finding f;
  f.round = 7;
  f.fingerprint = "deadbeefdeadbeef";
  f.detector = "CPDoS";
  f.vector = {"squid->iis"};
  f.provenance = "mutant:abc:space-before-colon";
  f.case_uuid = "camp-r7-3";
  f.description = "cacheable error split";

  const std::string line = finding_jsonl(f);
  EXPECT_EQ(line.find("{\"round\":7,"), 0u);  // round first, cheap truncation
  EXPECT_NE(line.find("\"fingerprint\":\"deadbeefdeadbeef\""),
            std::string::npos);
  EXPECT_NE(line.find("\"detector\":\"CPDoS\""), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(StoreTest, FreshDirDoesNotExist) {
  StateStore store(fresh_dir("missing"));
  EXPECT_FALSE(store.exists());
  EXPECT_FALSE(store.load());
}

TEST(StoreTest, LoadHealsALineTornMidHexEscape) {
  const std::string dir = fresh_dir("torn-escape");
  StateStore store(dir);
  ASSERT_TRUE(store.init("sig"));

  Finding f;
  f.round = 0;
  f.fingerprint = "00000000000000cc";
  f.detector = "HRS";
  f.vector = {"squid->iis"};
  f.provenance = "seed:get";
  f.case_uuid = "camp-r0-0";
  f.description = "committed";
  store.add_finding(f);
  ASSERT_TRUE(store.commit_round(0));
  const std::string committed_bytes = slurp(store.findings_path());

  // The nastiest crash window: the appending writer died partway through a
  // JSON escape sequence, leaving a final line that is not merely
  // uncommitted but unparseable ("...\u00" with the hex digits missing).
  Finding orphan = f;
  orphan.round = 1;
  orphan.fingerprint = "00000000000000dd";
  orphan.description = std::string("ctl \x01 byte", 10);
  const std::string orphan_line = finding_jsonl(orphan);
  const std::size_t escape = orphan_line.find("\\u00");
  ASSERT_NE(escape, std::string::npos) << orphan_line;
  {
    std::ofstream out(store.findings_path(), std::ios::app | std::ios::binary);
    out << orphan_line.substr(0, escape + 3);  // cut inside the escape
  }
  ASSERT_NE(slurp(store.findings_path()), committed_bytes);

  StateStore loaded(dir);
  ASSERT_TRUE(loaded.load()) << loaded.error();
  EXPECT_EQ(slurp(loaded.findings_path()), committed_bytes);
  ASSERT_EQ(loaded.findings.size(), 1u);
  EXPECT_EQ(loaded.findings[0].fingerprint, "00000000000000cc");

  fs::remove_all(dir);
}

TEST(StoreTest, StaleTornTmpFileCannotSurviveACommit) {
  const std::string dir = fresh_dir("torn-tmp");
  StateStore store(dir);
  ASSERT_TRUE(store.init("sig"));
  ASSERT_TRUE(store.commit_round(0));
  const std::string committed = slurp(store.state_path());

  // A crash between tmp-write and rename leaves a torn tmp file behind.
  // It must never shadow or corrupt the checkpoint: loads ignore it and
  // the next durable commit simply overwrites it.
  const std::string tmp = store.state_path() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << committed.substr(0, committed.size() / 2) << "GARBAGE";
  }
  StateStore loaded(dir);
  ASSERT_TRUE(loaded.load()) << loaded.error();
  EXPECT_EQ(loaded.rounds_completed, 1u);
  EXPECT_EQ(slurp(loaded.state_path()), committed);

  ASSERT_TRUE(loaded.commit_round(0));
  EXPECT_FALSE(fs::exists(tmp)) << "commit left its tmp file behind";
  EXPECT_EQ(slurp(loaded.state_path()), committed);

  fs::remove_all(dir);
}

TEST(StoreTest, WriteFileAtomicDurablePublishesAllOrNothing) {
  const std::string dir = fresh_dir("durable");
  fs::create_directories(dir);
  const std::string path = dir + "/blob";
  ASSERT_TRUE(write_file_atomic_durable(path, "first"));
  EXPECT_EQ(slurp(path), "first");
  ASSERT_TRUE(write_file_atomic_durable(path, "second"));
  EXPECT_EQ(slurp(path), "second");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  // A missing parent directory is a clean failure, not a partial file.
  EXPECT_FALSE(write_file_atomic_durable(dir + "/no/such/dir/blob", "x"));
  fs::remove_all(dir);
}

TEST(StoreTest, SecondWriterIsRefusedByTheLockFile) {
  const std::string dir = fresh_dir("lock");
  StateStore first(dir);
  ASSERT_TRUE(first.acquire_lock()) << first.error();
  EXPECT_TRUE(first.locked());

  // flock is per open file description, so a second StateStore in this
  // process stands in for a second engine/serve process.
  StateStore second(dir);
  EXPECT_FALSE(second.acquire_lock());
  EXPECT_FALSE(second.locked());
  EXPECT_NE(second.error().find("lock"), std::string::npos)
      << second.error();

  first.release_lock();
  EXPECT_TRUE(second.acquire_lock()) << second.error();
  fs::remove_all(dir);
}

TEST(StoreTest, ReloadedStreamCampaignRecommitsByteIdentically) {
  // The checkpoint's finding= lines are cached text: add_finding renders
  // them during the run, parse_state keeps them on load.  Re-committing
  // the loaded image must reproduce the checkpoint byte for byte.
  const std::string dir = fresh_dir("recommit");
  CampaignConfig config;
  config.state_dir = dir;
  config.rounds = 2;
  config.budget_per_round = 16;
  config.minimize.max_steps = 64;
  config.streams = true;
  config.stream_budget_per_round = 12;
  config.bootstrap = core::verification_probes();
  if (config.bootstrap.size() > 12) config.bootstrap.resize(12);
  const auto fleet = impls::make_all_implementations();
  const CampaignReport report = CampaignEngine(config).run(fleet);
  ASSERT_TRUE(report.error.empty()) << report.error;
  ASSERT_GT(report.total_findings, 0u);
  ASSERT_GT(report.stream_entries, 0u);
  const std::string committed = slurp(StateStore(dir).state_path());

  StateStore loaded(dir);
  ASSERT_TRUE(loaded.acquire_lock()) << loaded.error();
  ASSERT_TRUE(loaded.load()) << loaded.error();
  ASSERT_EQ(loaded.findings.size(), report.total_findings);
  ASSERT_TRUE(loaded.commit_round(loaded.rounds_completed - 1))
      << loaded.error();
  EXPECT_EQ(slurp(loaded.state_path()), committed);
  fs::remove_all(dir);
}

TEST(StoreTest, EngineRefusesADirAnotherWriterHolds) {
  const std::string dir = fresh_dir("engine-lock");
  StateStore holder(dir);
  ASSERT_TRUE(holder.acquire_lock());

  CampaignConfig config;
  config.state_dir = dir;
  config.rounds = 1;
  config.budget_per_round = 4;
  config.bootstrap = core::verification_probes();
  CampaignEngine engine(config);
  const auto fleet = impls::make_all_implementations();
  const CampaignReport report = engine.run(fleet);
  EXPECT_FALSE(report.error.empty());
  EXPECT_NE(report.error.find("lock"), std::string::npos) << report.error;
  // The refused engine must not have touched the dir: no checkpoint.
  EXPECT_FALSE(StateStore(dir).exists());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hdiff::campaign
