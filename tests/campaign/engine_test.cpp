// Campaign engine end-to-end properties on the modelled fleet: `--jobs`
// determinism (byte-identical state, findings and corpus artifacts),
// crash/resume byte-identity, fingerprint uniqueness, config-signature
// protection, the quarantine/retry integration under persistent harness
// faults, and the same properties with stream cases on.
#include "campaign/engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/store.h"
#include "core/probes.h"
#include "impls/products.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "stream/model.h"
#include "stream/seeds.h"

#include "coverage_fixture.h"

namespace hdiff::campaign {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::temp_directory_path() /
                       ("hdiff-engine-test-" + std::to_string(::getpid()) +
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

// Small but divergence-rich bootstrap: the first Table II verification
// probes keep each round fast while still tripping every detector class.
std::vector<core::TestCase> small_bootstrap() {
  auto probes = core::verification_probes();
  if (probes.size() > 12) probes.resize(12);
  return probes;
}

CampaignConfig make_config(const std::string& dir, std::size_t rounds,
                           std::size_t jobs) {
  CampaignConfig config;
  config.state_dir = dir;
  config.rounds = rounds;
  config.budget_per_round = 16;
  config.minimize.max_steps = 64;
  config.executor.jobs = jobs;
  config.bootstrap = small_bootstrap();
  return config;
}

CampaignConfig make_stream_config(const std::string& dir, std::size_t rounds,
                                  std::size_t jobs) {
  CampaignConfig config = make_config(dir, rounds, jobs);
  config.streams = true;
  config.stream_budget_per_round = 12;
  return config;
}

/// campaign.log: the third artifact (besides the checkpoint and
/// findings.jsonl) a resumed run must reproduce exactly.
std::string campaign_log(const std::string& dir) {
  return slurp(StateStore(dir).log_path());
}

/// The byte count of the checkpoint's log= line: the committed prefix.
std::uint64_t committed_log_bytes(const std::string& dir) {
  std::istringstream state(slurp(StateStore(dir).state_path()));
  for (std::string line; std::getline(state, line);) {
    if (line.rfind("log=", 0) == 0) return std::stoull(line.substr(4));
  }
  ADD_FAILURE() << "no log= line in " << dir;
  return 0;
}

/// The committed checkpoint's log= line names a prefix campaign.log holds
/// in full, and every entry= and sentry= record in it parses.  Returns the
/// number of entries checked.
std::size_t expect_checkpoint_log_durable(const std::string& dir) {
  const std::uint64_t committed = committed_log_bytes(dir);
  const std::string log = campaign_log(dir);
  EXPECT_GE(log.size(), committed);
  core::RecordReader r(std::string_view(log).substr(0, committed));
  std::size_t checked = 0;
  while (r.next()) {
    const core::Record& rec = r.record();
    std::string text;
    if (rec.key() == "entry") {
      http::RequestSpec spec;
      EXPECT_TRUE(rec.bytes(2, &text) && deserialize_spec(text, &spec))
          << rec.field(0);
    } else if (rec.key() == "sentry") {
      stream::RequestStream parsed;
      EXPECT_TRUE(rec.bytes(2, &text) &&
                  stream::deserialize_stream(text, &parsed))
          << rec.field(0);
    } else {
      continue;
    }
    ++checked;
  }
  EXPECT_TRUE(r.ok());
  return checked;
}

std::size_t count_stream_retries(const StateStore& store) {
  std::size_t n = 0;
  for (const auto& r : store.retry_queue) {
    n += stream::is_stream_text(r.spec_text) ? 1 : 0;
  }
  return n;
}

/// Streams and the coverage-weighted schedule together, the way
/// `hdiff campaign run --streams` runs them.
CampaignConfig make_stream_coverage_config(const std::string& dir,
                                           std::size_t rounds,
                                           std::size_t jobs) {
  CampaignConfig config = make_stream_config(dir, rounds, jobs);
  config.coverage = coverage_fixture();
  return config;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override { fleet_ = impls::make_all_implementations(); }
  std::vector<std::unique_ptr<impls::HttpImplementation>> fleet_;
};

TEST_F(EngineTest, StateAndFindingsAreByteIdenticalAcrossJobs) {
  const std::string dir1 = fresh_dir("jobs1");
  const std::string dir8 = fresh_dir("jobs8");

  const auto r1 = CampaignEngine(make_config(dir1, 2, 1)).run(fleet_);
  const auto r8 = CampaignEngine(make_config(dir8, 2, 8)).run(fleet_);
  ASSERT_TRUE(r1.error.empty()) << r1.error;
  ASSERT_TRUE(r8.error.empty()) << r8.error;
  EXPECT_GT(r1.total_findings, 0u);

  StateStore s1(dir1), s8(dir8);
  EXPECT_EQ(slurp(s1.state_path()), slurp(s8.state_path()));
  EXPECT_EQ(slurp(s1.log_path()), slurp(s8.log_path()));
  EXPECT_EQ(slurp(s1.findings_path()), slurp(s8.findings_path()));

  fs::remove_all(dir1);
  fs::remove_all(dir8);
}

/// Run `make(dir, 2, 1)` uninterrupted and killed-then-resumed; the
/// checkpoint, findings.jsonl and campaign.log must end byte-identical.
void expect_crash_resume_byte_identical(
    const std::vector<std::unique_ptr<impls::HttpImplementation>>& fleet,
    CampaignConfig (*make)(const std::string&, std::size_t, std::size_t),
    const std::string& tag) {
  const std::string ref_dir = fresh_dir(tag + "-ref");
  const std::string crash_dir = fresh_dir(tag + "-crash");

  const auto ref = CampaignEngine(make(ref_dir, 2, 1)).run(fleet);
  ASSERT_TRUE(ref.error.empty()) << ref.error;

  // Kill in the worst window: round 1's log records and findings lines on
  // disk, checkpoint not yet renamed.
  auto crashing = make(crash_dir, 2, 1);
  crashing.crash_after_round = 1;
  const auto interrupted = CampaignEngine(crashing).run(fleet);
  ASSERT_TRUE(interrupted.error.empty()) << interrupted.error;
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_LT(interrupted.rounds_completed, ref.rounds_completed);
  {
    // The window really is the worst one: the round's findings lines and
    // log records are appended beyond what the checkpoint commits.
    StateStore crashed(crash_dir);
    ASSERT_TRUE(crashed.load_readonly()) << crashed.error();
    std::istringstream lines(slurp(crashed.findings_path()));
    std::size_t appended = 0;
    for (std::string line; std::getline(lines, line);) ++appended;
    EXPECT_GT(appended, crashed.findings.size());
    EXPECT_GT(campaign_log(crash_dir).size(), committed_log_bytes(crash_dir));
  }

  const auto resumed = CampaignEngine(make(crash_dir, 2, 1)).run(fleet);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.rounds_completed, ref.rounds_completed);

  StateStore a(ref_dir), b(crash_dir);
  EXPECT_EQ(slurp(a.state_path()), slurp(b.state_path()));
  EXPECT_EQ(slurp(a.log_path()), slurp(b.log_path()));
  EXPECT_EQ(slurp(a.findings_path()), slurp(b.findings_path()));

  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
}

TEST_F(EngineTest, CrashedRoundResumesByteIdentically) {
  expect_crash_resume_byte_identical(fleet_, &make_config, "crash");
}

TEST_F(EngineTest, CrashedStreamRoundResumesByteIdentically) {
  expect_crash_resume_byte_identical(fleet_, &make_stream_config,
                                     "stream-crash");
  expect_crash_resume_byte_identical(fleet_, &make_stream_coverage_config,
                                     "stream-cov-crash");
}

TEST_F(EngineTest, StreamCampaignIsByteIdenticalAcrossJobs) {
  for (const auto make : {&make_stream_config, &make_stream_coverage_config}) {
    const bool coverage = make == &make_stream_coverage_config;
    SCOPED_TRACE(coverage ? "streams + coverage" : "streams");
    const std::string dir1 = fresh_dir("stream-jobs1");
    const std::string dir8 = fresh_dir("stream-jobs8");

    // Only the jobs-1 run is observed: observability never perturbs
    // findings (ObsIntegration.FindingsIdenticalWithObsOnAndOff), so the
    // byte comparison below also covers obs on vs off.
    obs::Registry registry;
    CampaignConfig config1 = make(dir1, 2, 1);
    config1.obs.metrics = &registry;
    const auto r1 = CampaignEngine(config1).run(fleet_);
    const auto r8 = CampaignEngine(make(dir8, 2, 8)).run(fleet_);
    ASSERT_TRUE(r1.error.empty()) << r1.error;
    ASSERT_TRUE(r8.error.empty()) << r8.error;
    EXPECT_GT(r1.stream_entries, 0u);
    EXPECT_EQ(r1.coverage_enabled, coverage);
    EXPECT_GT(registry.counter("hdiff_stream_observations_total").value(), 0u);

    StateStore s1(dir1), s8(dir8);
    ASSERT_TRUE(s1.load_readonly()) << s1.error();
    bool stream_finding = false;
    for (const auto& f : s1.findings) {
      stream_finding |= f.detector.rfind("stream-", 0) == 0;
    }
    EXPECT_TRUE(stream_finding);
    EXPECT_EQ(slurp(s1.state_path()), slurp(s8.state_path()));
    EXPECT_EQ(slurp(s1.findings_path()), slurp(s8.findings_path()));
    EXPECT_EQ(campaign_log(dir1), campaign_log(dir8));

    fs::remove_all(dir1);
    fs::remove_all(dir8);
  }
}

TEST_F(EngineTest, EveryStreamCampaignCommitNamesOnlyDurableFiles) {
  // Drive the rounds through the public hooks so the checkpoint can be
  // inspected after every single commit, not just at the end.
  const std::string dir = fresh_dir("stream-durable");
  const CampaignConfig config = make_stream_config(dir, 3, 4);
  StateStore store(dir);
  ASSERT_TRUE(store.acquire_lock()) << store.error();
  ASSERT_TRUE(store.init(campaign_config_sig(config))) << store.error();
  register_seed_entries(store, config);
  register_stream_seed_entries(store, config);
  const net::Chain chain = net::Chain::from_fleet(fleet_);
  core::ObservationMemo memo;
  net::VerdictCache verdicts;
  for (std::size_t round = 0; round <= config.rounds; ++round) {
    RoundPlan plan = plan_round(store, config, round);
    ExecutedRound executed =
        execute_round(config, chain, plan.cases, &memo, &verdicts);
    integrate_round(store, config, round, plan.cases, executed.outcomes,
                    chain, &memo, &verdicts);
    ASSERT_TRUE(store.commit_round(round)) << store.error();
    const std::size_t checked = expect_checkpoint_log_durable(dir);
    EXPECT_EQ(checked, store.entries.size() + store.stream_entries.size());
    StateStore reader(dir);
    ASSERT_TRUE(reader.load_readonly()) << reader.error();
    EXPECT_EQ(reader.rounds_completed, round + 1);
  }
  EXPECT_GT(store.stream_entries.size(),
            stream::default_stream_seeds().size());
  fs::remove_all(dir);
}

TEST_F(EngineTest, FaultedStreamCaseIsQuarantinedAndReplayedOnResume) {
  const std::string dir = fresh_dir("stream-fault");
  ASSERT_TRUE(
      CampaignEngine(make_stream_config(dir, 0, 1)).run(fleet_).error.empty());

  // Round 1 — where the stream seeds are first observed — against a fleet
  // whose every model call faults, driven through the public hooks so the
  // executor's stats are visible.
  net::FaultPlanConfig plan_config;
  plan_config.rate = 1.0;
  plan_config.max_faults_per_site = 0;  // persistent
  plan_config.kinds = {net::FaultKind::kReset};
  auto faulty = net::wrap_fleet_with_faults(
      fleet_, std::make_shared<net::FaultPlan>(plan_config));
  CampaignConfig config = make_stream_config(dir, 1, 2);
  config.executor.retry.attempts = 2;
  config.executor.retry.backoff_max_ms = 1;
  {
    StateStore store(dir);
    ASSERT_TRUE(store.acquire_lock()) << store.error();
    ASSERT_TRUE(store.load()) << store.error();
    const RoundPlan plan = plan_round(store, config, 1);
    std::set<std::string> stream_uuids;
    for (const auto& pc : plan.cases) {
      if (pc.is_stream) stream_uuids.insert(pc.tc.uuid);
    }
    ASSERT_FALSE(stream_uuids.empty());

    const net::Chain chain = net::Chain::from_fleet(faulty);
    core::ObservationMemo memo;
    net::VerdictCache verdicts;
    const ExecutedRound executed =
        execute_round(config, chain, plan.cases, &memo, &verdicts);
    std::size_t quarantined_streams = 0;
    for (const auto& q : executed.stats.quarantined) {
      if (stream_uuids.count(q.uuid) == 0) continue;
      ++quarantined_streams;
      EXPECT_EQ(q.attempts, 2u) << q.uuid;  // retried under RetryPolicy
      EXPECT_EQ(q.error, net::ChainError::kReset) << q.uuid;
    }
    EXPECT_EQ(quarantined_streams, stream_uuids.size());
    EXPECT_EQ(executed.stats.quarantined_cases, plan.cases.size());

    const RoundReport rr = integrate_round(store, config, 1, plan.cases,
                                           executed.outcomes, chain, &memo,
                                           &verdicts);
    EXPECT_EQ(rr.quarantined, plan.cases.size());
    EXPECT_EQ(count_stream_retries(store), stream_uuids.size());
    ASSERT_TRUE(store.commit_round(1)) << store.error();
  }
  const auto status = CampaignEngine::status(dir);
  EXPECT_GT(status.retry_depth, 0u);

  // Resume against the healthy fleet: round 2 replays the quarantined
  // stream cases first and recovers their stream findings.
  const auto resumed =
      CampaignEngine(make_stream_config(dir, 2, 2)).run(fleet_);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  ASSERT_EQ(resumed.rounds.size(), 1u);
  EXPECT_EQ(resumed.rounds[0].replayed, status.retry_depth);
  EXPECT_EQ(resumed.rounds[0].quarantined, 0u);
  EXPECT_EQ(resumed.retry_depth, 0u);
  StateStore after(dir);
  ASSERT_TRUE(after.load_readonly()) << after.error();
  bool replayed_stream_finding = false;
  for (const auto& f : after.findings) {
    replayed_stream_finding |= f.round == 2 &&
                               f.detector.rfind("stream-", 0) == 0 &&
                               f.provenance.rfind("stream-seed:", 0) == 0;
  }
  EXPECT_TRUE(replayed_stream_finding);

  fs::remove_all(dir);
}

/// The planner's derived arm tables are a cache: a plan from a live store
/// whose tables were built in earlier rounds must equal the plan from a
/// fresh load of the same checkpoint, case for case and arm row for row.
void expect_same_plan(const RoundPlan& warm, const StateStore& live,
                      const RoundPlan& cold, const StateStore& fresh) {
  EXPECT_EQ(warm.replayed, cold.replayed);
  ASSERT_EQ(warm.cases.size(), cold.cases.size());
  for (std::size_t i = 0; i < warm.cases.size(); ++i) {
    const PlannedCase& w = warm.cases[i];
    const PlannedCase& c = cold.cases[i];
    EXPECT_EQ(w.tc.uuid, c.tc.uuid) << i;
    EXPECT_EQ(w.tc.raw, c.tc.raw) << w.tc.uuid;
    EXPECT_EQ(w.tc.stream, c.tc.stream) << w.tc.uuid;
    EXPECT_EQ(w.spec_text, c.spec_text) << w.tc.uuid;
    EXPECT_EQ(w.provenance, c.provenance) << w.tc.uuid;
    EXPECT_EQ(w.arm_entry, c.arm_entry) << w.tc.uuid;
    EXPECT_EQ(w.arm_kind, c.arm_kind) << w.tc.uuid;
    EXPECT_EQ(w.cov_ids, c.cov_ids) << w.tc.uuid;
    EXPECT_EQ(w.gap_ids, c.gap_ids) << w.tc.uuid;
  }
  EXPECT_EQ(live.arms, fresh.arms);
  EXPECT_EQ(live.stream_arms, fresh.stream_arms);
}

TEST_F(EngineTest, WarmPlanEqualsColdPlanFromTheCheckpoint) {
  const std::string dir = fresh_dir("warm-cold");
  CampaignConfig config = make_stream_config(dir, 4, 2);
  config.coverage = coverage_fixture();
  config.executor.retry.attempts = 1;
  StateStore store(dir);
  ASSERT_TRUE(store.acquire_lock()) << store.error();
  ASSERT_TRUE(store.init(campaign_config_sig(config))) << store.error();
  register_seed_entries(store, config);
  register_stream_seed_entries(store, config);
  adopt_coverage(store, config);

  const net::Chain chain = net::Chain::from_fleet(fleet_);
  core::ObservationMemo memo;
  net::VerdictCache verdicts;
  // Round 2 runs against a fleet whose every model call faults, so round 3
  // replays request and stream mutants whose arms are re-attributed.
  net::FaultPlanConfig fault_config;
  fault_config.rate = 1.0;
  fault_config.max_faults_per_site = 0;  // persistent
  fault_config.kinds = {net::FaultKind::kReset};
  const auto faulty = net::wrap_fleet_with_faults(
      fleet_, std::make_shared<net::FaultPlan>(fault_config));
  const net::Chain faulty_chain = net::Chain::from_fleet(faulty);
  constexpr std::size_t kFaultedRound = 2;

  std::size_t attributed_replays = 0;
  for (std::size_t round = 0; round <= config.rounds; ++round) {
    RoundPlan plan = plan_round(store, config, round);
    if (round > 0) {
      StateStore fresh(dir);
      ASSERT_TRUE(fresh.load_readonly()) << fresh.error();
      const RoundPlan cold = plan_round(fresh, config, round);
      expect_same_plan(plan, store, cold, fresh);
    }
    for (std::size_t i = 0; i < plan.replayed; ++i) {
      attributed_replays += plan.cases[i].arm_entry != StateStore::npos;
    }
    const bool faulted = round == kFaultedRound;
    core::ObservationMemo fault_memo;
    net::VerdictCache fault_verdicts;
    ExecutedRound executed =
        faulted ? execute_round(config, faulty_chain, plan.cases,
                                &fault_memo, &fault_verdicts)
                : execute_round(config, chain, plan.cases, &memo, &verdicts);
    integrate_round(store, config, round, plan.cases, executed.outcomes,
                    chain, &memo, &verdicts);
    if (faulted) {
      EXPECT_EQ(store.retry_queue.size(), plan.cases.size());
    }
    ASSERT_TRUE(store.commit_round(round)) << store.error();
  }
  EXPECT_GT(attributed_replays, 0u);
  // The live tables covered every entry the last plan saw; the last round's
  // new entries wait for the next plan.
  EXPECT_FALSE(store.entry_arms.empty());
  EXPECT_FALSE(store.stream_entry_arms.empty());
  EXPECT_LE(store.entry_arms.size(), store.entries.size());
  fs::remove_all(dir);
}

TEST_F(EngineTest, AdoptCoverageDropsArmTablesBuiltWithoutIt) {
  const std::string dir = fresh_dir("adopt-drops");
  const CampaignConfig plain = make_config(dir, 2, 1);
  CampaignConfig covered = plain;
  covered.coverage = coverage_fixture();

  StateStore store(dir);
  register_seed_entries(store, plain);
  plan_round(store, plain, 1);
  ASSERT_EQ(store.entry_arms.size(), store.entries.size());
  for (const auto& arms : store.entry_arms) {
    for (const RequestArm& arm : arms) EXPECT_TRUE(arm.cov_ids.empty());
  }
  adopt_coverage(store, covered);
  EXPECT_TRUE(store.entry_arms.empty());

  // The rebuilt tables plan exactly what a store that never built tables
  // without the coverage plan plans.
  StateStore reference(fresh_dir("adopt-ref"));
  register_seed_entries(reference, plain);
  reference.arms = store.arms;
  adopt_coverage(reference, covered);
  const RoundPlan rebuilt = plan_round(store, covered, 2);
  const RoundPlan cold = plan_round(reference, covered, 2);
  expect_same_plan(rebuilt, store, cold, reference);
  bool attributed = false;
  for (const auto& pc : rebuilt.cases) attributed |= !pc.cov_ids.empty();
  EXPECT_TRUE(attributed);
}

TEST_F(EngineTest, CoverageWeightedRunsAreByteIdenticalAcrossJobs) {
  const std::string dir1 = fresh_dir("cov-jobs1");
  const std::string dir8 = fresh_dir("cov-jobs8");

  auto config1 = make_config(dir1, 2, 1);
  auto config8 = make_config(dir8, 2, 8);
  config1.coverage = coverage_fixture();
  config8.coverage = coverage_fixture();

  const auto r1 = CampaignEngine(config1).run(fleet_);
  const auto r8 = CampaignEngine(config8).run(fleet_);
  ASSERT_TRUE(r1.error.empty()) << r1.error;
  ASSERT_TRUE(r8.error.empty()) << r8.error;
  EXPECT_TRUE(r1.coverage_enabled);
  EXPECT_TRUE(r1.coverage_weighting);
  EXPECT_GT(r1.coverage_total, 0u);
  // Every bootstrap probe mutates headers, so header-field coverage is hit
  // in round 1 at the latest.
  EXPECT_GT(r1.coverage_covered, 0u);
  EXPECT_EQ(r1.coverage_covered, r8.coverage_covered);
  EXPECT_EQ(r1.gap_sites_hit, r8.gap_sites_hit);

  StateStore s1(dir1), s8(dir8);
  EXPECT_EQ(slurp(s1.state_path()), slurp(s8.state_path()));
  EXPECT_EQ(slurp(s1.log_path()), slurp(s8.log_path()));
  EXPECT_EQ(slurp(s1.findings_path()), slurp(s8.findings_path()));

  fs::remove_all(dir1);
  fs::remove_all(dir8);
}

TEST_F(EngineTest, CoverageCrashedRoundResumesByteIdentically) {
  const std::string ref_dir = fresh_dir("cov-ref");
  const std::string crash_dir = fresh_dir("cov-crash");

  auto ref_config = make_config(ref_dir, 2, 1);
  ref_config.coverage = coverage_fixture();
  const auto ref = CampaignEngine(ref_config).run(fleet_);
  ASSERT_TRUE(ref.error.empty()) << ref.error;

  auto crashing = make_config(crash_dir, 2, 1);
  crashing.coverage = coverage_fixture();
  crashing.crash_after_round = 1;
  const auto interrupted = CampaignEngine(crashing).run(fleet_);
  ASSERT_TRUE(interrupted.error.empty()) << interrupted.error;
  EXPECT_TRUE(interrupted.interrupted);

  auto resume_config = make_config(crash_dir, 2, 1);
  resume_config.coverage = coverage_fixture();
  const auto resumed = CampaignEngine(resume_config).run(fleet_);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.coverage_covered, ref.coverage_covered);
  EXPECT_EQ(resumed.gap_sites_hit, ref.gap_sites_hit);

  StateStore a(ref_dir), b(crash_dir);
  EXPECT_EQ(slurp(a.state_path()), slurp(b.state_path()));
  EXPECT_EQ(slurp(a.log_path()), slurp(b.log_path()));
  EXPECT_EQ(slurp(a.findings_path()), slurp(b.findings_path()));

  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
}

TEST_F(EngineTest, PreCoverageCheckpointResumesAndAdoptsThePlan) {
  // The healed upgrade path: a state dir written before coverage existed
  // (no cov* keys, same config signature) must resume under a
  // coverage-aware config, adopting the plan mid-campaign.
  const std::string dir = fresh_dir("cov-upgrade");

  const auto old = CampaignEngine(make_config(dir, 1, 1)).run(fleet_);
  ASSERT_TRUE(old.error.empty()) << old.error;
  EXPECT_FALSE(old.coverage_enabled);
  {
    StateStore s(dir);
    EXPECT_EQ(slurp(s.state_path()).find("cov"), std::string::npos);
  }

  auto upgraded = make_config(dir, 2, 1);
  upgraded.coverage = coverage_fixture();
  const auto resumed = CampaignEngine(upgraded).run(fleet_);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_TRUE(resumed.coverage_enabled);
  EXPECT_GT(resumed.rounds_completed, old.rounds_completed);

  // The adopted plan is now pinned in the checkpoint.
  StateStore s(dir);
  ASSERT_TRUE(s.load()) << s.error();
  EXPECT_TRUE(s.coverage_enabled());
  EXPECT_EQ(s.coverage.sig, upgraded.coverage.sig);

  fs::remove_all(dir);
}

TEST_F(EngineTest, AdoptCoverageNeverOverwritesACheckpointPlan) {
  StateStore store(fresh_dir("cov-adopt"));
  CampaignConfig config;
  config.coverage = coverage_fixture();
  config.coverage.bootstrap_covered = {0};

  adopt_coverage(store, config);
  ASSERT_TRUE(store.coverage_enabled());
  EXPECT_EQ(store.covered, config.coverage.bootstrap_covered);

  // Live state diverges; a second adoption (e.g. on resume) must not reset
  // it — the checkpoint wins.
  store.covered.insert(3);
  store.gap_hits[0] = 2;
  adopt_coverage(store, config);
  EXPECT_EQ(store.covered.size(), 2u);
  EXPECT_EQ(store.gap_hits.at(0), 2u);

  // And a coverage-free config never erases an existing plan.
  CampaignConfig plain;
  adopt_coverage(store, plain);
  EXPECT_TRUE(store.coverage_enabled());
}

TEST_F(EngineTest, EveryFingerprintIsReportedExactlyOnce) {
  const std::string dir = fresh_dir("unique");
  const auto report = CampaignEngine(make_config(dir, 2, 1)).run(fleet_);
  ASSERT_TRUE(report.error.empty()) << report.error;

  StateStore store(dir);
  ASSERT_TRUE(store.load()) << store.error();
  std::set<std::string> seen;
  for (const auto& f : store.findings) {
    EXPECT_TRUE(seen.insert(f.fingerprint).second)
        << "duplicate fingerprint " << f.fingerprint;
  }
  EXPECT_EQ(seen.size(), report.total_findings);

  fs::remove_all(dir);
}

TEST_F(EngineTest, CampaignFindingsCoverTheBootstrapFindings) {
  // Round 0 executes the bootstrap corpus, so its DetectionResult is what a
  // one-shot `hdiff run` over that corpus reports.  Every pair and
  // violation it holds must reappear among the findings DB's vectors.
  const std::string dir = fresh_dir("superset");
  const auto report = CampaignEngine(make_config(dir, 2, 1)).run(fleet_);
  ASSERT_TRUE(report.error.empty()) << report.error;
  ASSERT_FALSE(report.bootstrap_findings.pairs.empty());
  ASSERT_FALSE(report.bootstrap_findings.violations.empty());

  StateStore store(dir);
  ASSERT_TRUE(store.load()) << store.error();
  std::set<std::string> pairs, violations;
  for (const auto& f : store.findings) {
    for (const auto& component : f.vector) {
      const std::size_t arrow = component.find("->");
      if (f.detector == "sr-violation") {
        violations.insert(component);
      } else if (arrow != std::string::npos) {
        pairs.insert(component.substr(0, arrow) + "|" +
                     component.substr(arrow + 2) + "|" + f.detector);
      }
    }
  }
  for (const auto& p : report.bootstrap_findings.pairs) {
    EXPECT_TRUE(pairs.count(p.front + "|" + p.back + "|" +
                            std::string(to_string(p.attack))))
        << "one-shot pair " << p.front << "->" << p.back << " missing";
  }
  for (const auto& v : report.bootstrap_findings.violations) {
    EXPECT_TRUE(violations.count(v.impl + "|" + v.sr_id))
        << "one-shot violation " << v.impl << "|" << v.sr_id << " missing";
  }

  fs::remove_all(dir);
}

TEST_F(EngineTest, ResumeRunsOnlyTheMissingRounds) {
  const std::string dir = fresh_dir("extend");
  const auto first = CampaignEngine(make_config(dir, 1, 1)).run(fleet_);
  ASSERT_TRUE(first.error.empty()) << first.error;
  EXPECT_EQ(first.rounds_completed, 2u);  // bootstrap + 1 mutation round

  // Same signature (rounds are excluded from it): extends by one round.
  const auto second = CampaignEngine(make_config(dir, 2, 1)).run(fleet_);
  ASSERT_TRUE(second.error.empty()) << second.error;
  EXPECT_TRUE(second.resumed);
  ASSERT_EQ(second.rounds.size(), 1u);
  EXPECT_EQ(second.rounds[0].round, 2u);
  EXPECT_EQ(second.rounds_completed, 3u);

  const auto status = CampaignEngine::status(dir);
  EXPECT_EQ(status.rounds_completed, 3u);
  EXPECT_EQ(status.total_findings, second.total_findings);

  fs::remove_all(dir);
}

TEST_F(EngineTest, ConfigSignatureMismatchRefusesToTouchState) {
  const std::string dir = fresh_dir("sig");
  const auto first = CampaignEngine(make_config(dir, 1, 1)).run(fleet_);
  ASSERT_TRUE(first.error.empty()) << first.error;

  auto other = make_config(dir, 1, 1);
  other.budget_per_round = 99;  // budget is part of the signature
  const auto rejected = CampaignEngine(other).run(fleet_);
  EXPECT_FALSE(rejected.error.empty());

  const auto status = CampaignEngine::status(dir);
  EXPECT_EQ(status.rounds_completed, first.rounds_completed);
  EXPECT_EQ(status.total_findings, first.total_findings);

  fs::remove_all(dir);
}

TEST_F(EngineTest, PersistentFaultsQuarantineAndReplayOnResume) {
  const std::string dir = fresh_dir("fault");

  // Every model call faults, forever: round 0 must quarantine every case
  // into the retry queue instead of filing findings or aborting.
  net::FaultPlanConfig plan_config;
  plan_config.rate = 1.0;
  plan_config.max_faults_per_site = 0;  // persistent
  plan_config.kinds = {net::FaultKind::kReset};
  auto plan = std::make_shared<net::FaultPlan>(plan_config);
  auto faulty = net::wrap_fleet_with_faults(fleet_, plan);

  auto config = make_config(dir, 0, 1);
  config.executor.retry.attempts = 1;  // no retries: quarantine fast
  const auto broken = CampaignEngine(config).run(faulty);
  ASSERT_TRUE(broken.error.empty()) << broken.error;
  ASSERT_EQ(broken.rounds.size(), 1u);
  EXPECT_EQ(broken.rounds[0].quarantined, config.bootstrap.size());
  EXPECT_EQ(broken.total_findings, 0u);
  EXPECT_EQ(broken.retry_depth, config.bootstrap.size());

  // Fleet health is not part of the signature: resuming against the healthy
  // fleet replays the quarantined cases first and recovers their findings.
  auto healthy_config = make_config(dir, 1, 1);
  healthy_config.executor.retry.attempts = 1;
  const auto recovered = CampaignEngine(healthy_config).run(fleet_);
  ASSERT_TRUE(recovered.error.empty()) << recovered.error;
  EXPECT_TRUE(recovered.resumed);
  ASSERT_FALSE(recovered.rounds.empty());
  EXPECT_EQ(recovered.rounds[0].replayed, config.bootstrap.size());
  EXPECT_GT(recovered.total_findings, 0u);
  EXPECT_EQ(recovered.retry_depth, 0u);

  fs::remove_all(dir);
}

TEST_F(EngineTest, ReportJsonCarriesTheCampaignBlock) {
  const std::string dir = fresh_dir("json");
  const auto report = CampaignEngine(make_config(dir, 1, 1)).run(fleet_);
  ASSERT_TRUE(report.error.empty()) << report.error;

  const std::string json = campaign_report_json(report);
  EXPECT_NE(json.find("\"campaign\""), std::string::npos);
  EXPECT_NE(json.find("\"rounds_completed\""), std::string::npos);
  EXPECT_NE(json.find("\"dedup_ratio\""), std::string::npos);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace hdiff::campaign
