// Persistent campaign state: spec text format round-trips byte-exotic
// specs, content addressing keys on the serialized form (not the wire
// concatenation), the StateStore survives a commit/load cycle with the
// campaign log and the findings artifact healed back to the committed
// round, and the log reader accepts exactly the committed prefix.
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
  // add_entry only stages the record; the round's commit writes it, once.
  EXPECT_FALSE(fs::exists(store.log_path()));
  ASSERT_TRUE(store.commit_round(0)) << store.error();
  EXPECT_EQ(slurp(store.log_path()),
            "entry=" + entry.hash + " " + core::field_enc(entry.provenance) +
                " " + core::field_enc(serialize_spec(entry.spec)) + "\n");
  StateStore loaded(dir);
  ASSERT_TRUE(loaded.load()) << loaded.error();
  ASSERT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.entries[0].spec, entry.spec);
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

  // Put a directory where the log was: opening it for writing fails with
  // EISDIR (unlike chmod, this stops root too).
  const std::string log = store.log_path();
  fs::rename(log, log + ".aside");
  fs::create_directory(log);

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
  EXPECT_NE(store.error().find("campaign.log"), std::string::npos)
      << store.error();
  EXPECT_EQ(store.rounds_completed, 1u);

  // Neither the checkpoint nor the findings artifact moved, and the
  // previous checkpoint still loads.
  EXPECT_EQ(slurp(store.state_path()), committed);
  EXPECT_EQ(slurp(store.findings_path()), committed_findings);
  fs::remove(log);
  fs::rename(log + ".aside", log);
  StateStore loaded(dir);
  ASSERT_TRUE(loaded.load()) << loaded.error();
  EXPECT_EQ(loaded.rounds_completed, 1u);
  ASSERT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.entries[0].hash, kept.hash);
  EXPECT_TRUE(loaded.findings.empty());
  EXPECT_EQ(slurp(log).find(lost.hash), std::string::npos);

  fs::remove_all(dir);
}

TEST(StoreTest, CommitWritesStagedStreamFilesAndFindingsAtOnce) {
  const std::string dir = fresh_dir("stage");
  StateStore store(dir);
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
  EXPECT_FALSE(fs::exists(store.log_path()));
  EXPECT_EQ(slurp(store.findings_path()), "");

  ASSERT_TRUE(store.commit_round(0)) << store.error();
  const std::string log = slurp(store.log_path());
  EXPECT_EQ(log.rfind("sentry=" + entry.hash + " ", 0), 0u) << log;
  EXPECT_NE(log.find(core::field_enc(stream::serialize_stream(entry.stream))),
            std::string::npos);
  EXPECT_NE(log.find("\nfinding=0 " + f.fingerprint + " "), std::string::npos);
  EXPECT_EQ(slurp(store.findings_path()), finding_jsonl(f) + "\n");

  // A second commit with nothing staged appends nothing.
  ASSERT_TRUE(store.commit_round(1)) << store.error();
  EXPECT_EQ(slurp(store.log_path()), log);
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
  store.arms[{0, "untried"}] = ArmStats{};  // sparse: not written

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
  EXPECT_EQ(arm_stats(loaded.arms, 0, "untried"), ArmStats{});
  EXPECT_EQ(slurp(loaded.state_path()).find("untried"), std::string::npos);
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
    out << "hdiff-campaign-state-v2\nconfig_sig=cfg\nrounds_completed=1\n"
        << "log=0 " << core::hex16(core::kFnv1a64Basis) << "\n"
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
  // Re-committing a loaded stream campaign must reproduce the checkpoint
  // byte for byte and append nothing to the log.
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
  const std::string log = slurp(StateStore(dir).log_path());

  StateStore loaded(dir);
  ASSERT_TRUE(loaded.acquire_lock()) << loaded.error();
  ASSERT_TRUE(loaded.load()) << loaded.error();
  ASSERT_EQ(loaded.findings.size(), report.total_findings);
  ASSERT_TRUE(loaded.commit_round(loaded.rounds_completed - 1))
      << loaded.error();
  EXPECT_EQ(slurp(loaded.state_path()), committed);
  EXPECT_EQ(slurp(loaded.log_path()), log);
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

/// A request entry whose spec is unique to (`round`, `i`).
CorpusEntry numbered_entry(std::size_t round, std::size_t i) {
  CorpusEntry e;
  e.spec = http::make_get("origin.example", "/r" + std::to_string(round) +
                                                "/" + std::to_string(i));
  e.hash = content_address(e.spec);
  e.provenance = "seed:n" + std::to_string(i);
  return e;
}

Finding numbered_finding(std::size_t round, std::size_t i) {
  Finding f;
  f.round = round;
  f.fingerprint = core::hex16(round * 1000 + i);
  f.detector = "HRS";
  f.vector = {"squid->iis"};
  f.provenance = "seed:n" + std::to_string(i);
  f.case_uuid = "camp-r" + std::to_string(round) + "-" + std::to_string(i);
  f.description = "finding " + std::to_string(i);
  return f;
}

/// Stage `n` entries and `n` findings for `round`.
void stage_round(StateStore& store, std::size_t round, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    store.add_entry(numbered_entry(round, i));
    store.add_finding(numbered_finding(round, i));
  }
}

/// Rewrite the fields of `dir`'s checkpoint log= line as `bytes fnv`.
void set_log_line(const std::string& dir, const std::string& bytes,
                  const std::string& fnv) {
  const StateStore paths(dir);
  std::string state = slurp(paths.state_path());
  const std::size_t at = state.find("\nlog=") + 5;
  state.replace(at, state.find('\n', at) - at, bytes + " " + fnv);
  std::ofstream(paths.state_path(), std::ios::binary | std::ios::trunc)
      << state;
}

/// Replace `dir`'s log with `log`, and point its checkpoint's log= line at
/// the first `committed` bytes of it (with their FNV), the way a commit
/// would have.
void write_log_and_commit(const std::string& dir, const std::string& log,
                          std::size_t committed) {
  set_log_line(dir, std::to_string(committed),
               core::hex16(core::fnv1a64(
                   std::string_view(log).substr(0, committed))));
  std::ofstream(StateStore(dir).log_path(),
                std::ios::binary | std::ios::trunc)
      << log;
}

TEST(StoreTest, CommitCostsThreeFsyncsWhateverTheRoundAdds) {
  const std::string dir = fresh_dir("fsyncs");
  StateStore store(dir);
  ASSERT_TRUE(store.init("sig"));

  stage_round(store, 0, 1);
  ASSERT_TRUE(store.commit_round(0)) << store.error();
  const CommitStats one = store.last_commit();
  // Log fdatasync, checkpoint fsync, directory fsync; plus one directory
  // fsync for the round that creates the log.
  EXPECT_EQ(one.fsyncs, 3u + 1u);
  EXPECT_EQ(one.log_bytes, fs::file_size(store.log_path()));
  EXPECT_EQ(one.findings_bytes, fs::file_size(store.findings_path()));
  EXPECT_EQ(one.state_bytes, fs::file_size(store.state_path()));

  stage_round(store, 1, 100);
  ASSERT_TRUE(store.commit_round(1)) << store.error();
  const CommitStats hundred = store.last_commit();
  EXPECT_EQ(hundred.fsyncs, 3u);
  EXPECT_GT(hundred.log_bytes, 50 * one.log_bytes);
  EXPECT_GT(hundred.findings_bytes, 50 * one.findings_bytes);
  // The checkpoint does not grow with the entries and findings: only the
  // digits of its log= line can.
  EXPECT_LE(hundred.state_bytes, one.state_bytes + 4);

  // Nothing staged: only the checkpoint is published.
  ASSERT_TRUE(store.commit_round(2)) << store.error();
  EXPECT_EQ(store.last_commit().fsyncs, 2u);
  EXPECT_EQ(store.last_commit().log_bytes, 0u);

  StateStore loaded(dir);
  ASSERT_TRUE(loaded.load()) << loaded.error();
  EXPECT_EQ(loaded.entries.size(), 101u);
  EXPECT_EQ(loaded.findings.size(), 101u);
  fs::remove_all(dir);
}

/// A committed round 0 (entries, a stream entry, findings) followed by
/// round 1's records written past the committed prefix, uncommitted — the
/// state a crash between append and rename leaves.
struct TornLog {
  std::string dir;
  std::string log;        ///< the whole file
  std::size_t committed;  ///< the checkpoint's prefix
};

TornLog torn_log(const std::string& tag) {
  TornLog t{fresh_dir(tag), {}, 0};
  StateStore store(t.dir);
  EXPECT_TRUE(store.init("sig"));
  stage_round(store, 0, 2);
  StreamEntry s;
  s.stream = stream::make_stream({http::make_get("a.example"), exotic_spec()});
  s.hash = stream_content_address(s.stream);
  s.provenance = "stream-seed:pair";
  store.add_stream_entry(s);
  EXPECT_TRUE(store.commit_round(0)) << store.error();
  t.committed = fs::file_size(store.log_path());
  stage_round(store, 1, 1);
  EXPECT_TRUE(store.write_staged()) << store.error();
  t.log = slurp(store.log_path());
  EXPECT_GT(t.log.size(), t.committed);
  return t;
}

TEST(StoreTest, EveryProperLogPrefixLoadsTheCommitOrIsRejected) {
  const TornLog t = torn_log("log-prefix");
  const StateStore paths(t.dir);
  for (std::size_t k = 0; k < t.log.size(); ++k) {
    std::ofstream(paths.log_path(), std::ios::binary | std::ios::trunc)
        << t.log.substr(0, k);
    StateStore loaded(t.dir);
    const bool ok = loaded.load_readonly();
    if (k >= t.committed) {
      ASSERT_TRUE(ok) << k << ": " << loaded.error();
      EXPECT_EQ(loaded.entries.size(), 2u) << k;
      EXPECT_EQ(loaded.stream_entries.size(), 1u) << k;
      EXPECT_EQ(loaded.findings.size(), 2u) << k;
    } else {
      ASSERT_FALSE(ok) << k;
      EXPECT_NE(loaded.error().find(paths.log_path()), std::string::npos)
          << k << ": " << loaded.error();
    }
  }
  fs::remove_all(t.dir);
}

TEST(StoreTest, CommittedLogPrefixParsesOnlyAtRecordBoundaries) {
  // Each prefix committed with its own FNV: a prefix that ends on a record
  // boundary loads exactly the records before it, any other one is torn
  // and rejected naming the log.
  const TornLog t = torn_log("log-boundary");
  const StateStore paths(t.dir);
  std::size_t records = 0;
  for (std::size_t k = 0; k <= t.log.size(); ++k) {
    write_log_and_commit(t.dir, t.log, k);
    StateStore loaded(t.dir);
    const bool ok = loaded.load_readonly();
    const bool boundary = k == 0 || t.log[k - 1] == '\n';
    records += k > 0 && boundary;
    if (boundary) {
      ASSERT_TRUE(ok) << k << ": " << loaded.error();
      EXPECT_EQ(loaded.entries.size() + loaded.stream_entries.size() +
                    loaded.findings.size(),
                records)
          << k;
    } else {
      ASSERT_FALSE(ok) << k;
      EXPECT_NE(loaded.error().find(paths.log_path()), std::string::npos)
          << k << ": " << loaded.error();
    }
  }
  EXPECT_EQ(records, 2u + 1u + 2u + 1u + 1u);
  fs::remove_all(t.dir);
}

TEST(StoreTest, TornLogTailIsIgnoredReadonlyAndTruncatedByLoad) {
  const TornLog t = torn_log("log-tail");
  const StateStore paths(t.dir);
  // The tail ends mid-record, as a kill inside the append would leave it.
  const std::string torn = t.log.substr(0, t.log.size() - 7);
  std::ofstream(paths.log_path(), std::ios::binary | std::ios::trunc) << torn;

  StateStore reader(t.dir);
  ASSERT_TRUE(reader.load_readonly()) << reader.error();
  EXPECT_EQ(reader.entries.size(), 2u);
  EXPECT_EQ(slurp(paths.log_path()), torn);

  StateStore writer(t.dir);
  ASSERT_TRUE(writer.load()) << writer.error();
  EXPECT_EQ(writer.entries.size(), 2u);
  EXPECT_EQ(slurp(paths.log_path()), t.log.substr(0, t.committed));

  // The re-run round appends right after the committed prefix.
  stage_round(writer, 1, 1);
  ASSERT_TRUE(writer.commit_round(1)) << writer.error();
  EXPECT_EQ(slurp(paths.log_path()), t.log);
  fs::remove_all(t.dir);
}

TEST(StoreTest, FlippedLogByteFailsTheFnvCheck) {
  const TornLog t = torn_log("log-flip");
  const StateStore paths(t.dir);
  std::string flipped = t.log;
  flipped[t.committed / 2] ^= 0x01;
  std::ofstream(paths.log_path(), std::ios::binary | std::ios::trunc)
      << flipped;
  StateStore loaded(t.dir);
  EXPECT_FALSE(loaded.load_readonly());
  EXPECT_NE(loaded.error().find("FNV"), std::string::npos) << loaded.error();
  EXPECT_NE(loaded.error().find(paths.log_path()), std::string::npos);
  fs::remove_all(t.dir);
}

TEST(StoreTest, LogLengthPastTheFileIsRejected) {
  const TornLog t = torn_log("log-length");
  const StateStore paths(t.dir);
  const std::string fnv = core::hex16(core::fnv1a64(t.log));
  for (const std::string& length :
       {std::to_string(t.log.size() + 1), std::string("18446744073709551615")}) {
    set_log_line(t.dir, length, fnv);
    StateStore loaded(t.dir);
    EXPECT_FALSE(loaded.load_readonly()) << length;
    EXPECT_NE(loaded.error().find(paths.log_path()), std::string::npos)
        << loaded.error();
  }
  fs::remove_all(t.dir);
}

TEST(StoreTest, LogEntryThatMissesItsContentAddressIsRejected) {
  const TornLog t = torn_log("log-address");
  std::string log = t.log.substr(0, t.committed);
  ASSERT_EQ(log.rfind("entry=", 0), 0u);
  // A well-formed record, committed with a matching FNV, whose spec does
  // not hash to its <hash>.
  log.replace(6, 16, "0123456789abcdef");
  write_log_and_commit(t.dir, log, log.size());
  StateStore loaded(t.dir);
  EXPECT_FALSE(loaded.load_readonly());
  EXPECT_NE(loaded.error().find("content address"), std::string::npos)
      << loaded.error();
  EXPECT_NE(loaded.error().find("campaign.log"), std::string::npos);
  fs::remove_all(t.dir);
}

TEST(StoreTest, RepeatedLogEntryIsRejected) {
  const TornLog t = torn_log("log-repeat");
  const std::string first = t.log.substr(0, t.log.find('\n') + 1);
  ASSERT_EQ(first.rfind("entry=", 0), 0u);
  write_log_and_commit(t.dir, first + first, 2 * first.size());
  StateStore loaded(t.dir);
  EXPECT_FALSE(loaded.load_readonly());
  EXPECT_NE(loaded.error().find("repeated entry"), std::string::npos)
      << loaded.error();
  fs::remove_all(t.dir);
}

}  // namespace
}  // namespace hdiff::campaign
