#include "core/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "abnf/parser.h"
#include "core/analyzer.h"
#include "core/probes.h"
#include "core/translator.h"
#include "corpus/registry.h"
#include "impls/products.h"
#include "net/chain.h"
#include "net/fault.h"

#include "expect_findings.h"

namespace hdiff::core {
namespace {

// ---- ObservationMemo ------------------------------------------------------

net::ChainObservation tagged_observation(std::string tag) {
  net::ChainObservation obs;
  obs.uuid = std::move(tag);
  return obs;
}

TEST(ObservationMemo, CountsHitsAndMisses) {
  ObservationMemo memo;
  EXPECT_EQ(memo.find("alpha"), nullptr);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.misses(), 1u);

  const net::ChainObservation* stored =
      memo.insert("alpha", tagged_observation("first"));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->uuid, "first");
  EXPECT_EQ(memo.size(), 1u);

  const net::ChainObservation* found = memo.find("alpha");
  EXPECT_EQ(found, stored);  // same entry, no copy
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
}

TEST(ObservationMemo, FirstInsertWins) {
  ObservationMemo memo;
  const net::ChainObservation* first =
      memo.insert("alpha", tagged_observation("first"));
  const net::ChainObservation* second =
      memo.insert("alpha", tagged_observation("second"));
  EXPECT_EQ(second, first);  // racing duplicate insert is discarded
  EXPECT_EQ(first->uuid, "first");
  EXPECT_EQ(memo.size(), 1u);
}

std::uint64_t collide_everything(std::string_view) noexcept { return 42; }

TEST(ObservationMemo, HashCollisionsCannotAlias) {
  // Force every key onto one hash bucket: entries must still be told apart
  // by the full-byte comparison.
  ObservationMemo memo(&collide_everything);
  memo.insert("alpha", tagged_observation("obs-a"));
  memo.insert("bravo", tagged_observation("obs-b"));
  memo.insert("", tagged_observation("obs-empty"));
  EXPECT_EQ(memo.size(), 3u);

  ASSERT_NE(memo.find("alpha"), nullptr);
  EXPECT_EQ(memo.find("alpha")->uuid, "obs-a");
  ASSERT_NE(memo.find("bravo"), nullptr);
  EXPECT_EQ(memo.find("bravo")->uuid, "obs-b");
  ASSERT_NE(memo.find(""), nullptr);
  EXPECT_EQ(memo.find("")->uuid, "obs-empty");
  EXPECT_EQ(memo.find("charlie"), nullptr);  // same hash, absent bytes
}

StreamDetectionResult tagged_stream_result(std::string tag) {
  StreamDetectionResult result;
  result.findings.push_back({std::move(tag), {"a|b"}, ""});
  return result;
}

TEST(ObservationMemo, StreamKeysEncodeKindAndBoundaries) {
  // Every key collides, so only the key bytes and the case kind can tell
  // the entries apart.
  ObservationMemo memo(&collide_everything);
  memo.insert_stream({"GET /a\r\n\r\n", "GET /b\r\n\r\n"},
                     tagged_stream_result("split-after-a"));
  // The same concatenated bytes as one message, or split elsewhere, are
  // different streams.
  EXPECT_EQ(memo.find_stream({"GET /a\r\n\r\nGET /b\r\n\r\n"}), nullptr);
  EXPECT_EQ(memo.find_stream({"GET /a\r\n\r\nGET /b", "\r\n\r\n"}), nullptr);
  const StreamDetectionResult* hit =
      memo.find_stream({"GET /a\r\n\r\n", "GET /b\r\n\r\n"});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->findings.at(0).detector, "split-after-a");

  // A single request whose raw bytes spell a stream's length-prefixed key
  // still never aliases that stream: the kind is part of the key.
  memo.insert("1:x1:y", tagged_observation("single"));
  EXPECT_EQ(memo.find_stream({"x", "y"}), nullptr);
  memo.insert_stream({"x", "y"}, tagged_stream_result("stream-xy"));
  ASSERT_NE(memo.find("1:x1:y"), nullptr);
  EXPECT_EQ(memo.find("1:x1:y")->uuid, "single");
  ASSERT_NE(memo.find_stream({"x", "y"}), nullptr);
  EXPECT_EQ(memo.find_stream({"x", "y"})->findings.at(0).detector,
            "stream-xy");
  EXPECT_EQ(memo.size(), 3u);
}

TEST(ObservationMemo, DefaultHashIsFnv1a) {
  // FNV-1a 64-bit reference vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(ParallelExecutor, ResolveJobs) {
  EXPECT_GE(ParallelExecutor::resolve_jobs(0), 1u);  // hardware_concurrency
  EXPECT_EQ(ParallelExecutor::resolve_jobs(1), 1u);
  EXPECT_EQ(ParallelExecutor::resolve_jobs(5), 5u);
}

// ---- determinism over the full probe + SR set -----------------------------

// The probe set plus every SR-translated case, exactly as Pipeline::run
// assembles them (same custom-ABNF adaptation inputs).
const std::vector<TestCase>& probe_and_sr_cases() {
  static const std::vector<TestCase> cases = [] {
    DocumentationAnalyzer analyzer;
    analyzer.set_custom_abnf("URI-reference",
                             abnf::parse_elements("absolute-URI"));
    analyzer.set_custom_abnf("HTTP-date", abnf::parse_elements("token"));
    analyzer.set_custom_abnf("quoted-string",
                             abnf::parse_elements("DQUOTE *VCHAR DQUOTE"));
    AnalyzerResult analysis = analyzer.analyze(corpus::http_core_documents());
    SrTranslator translator(analysis.grammar);
    std::vector<TestCase> all = verification_probes();
    std::vector<TestCase> sr = translator.translate_all(analysis.srs);
    for (auto& tc : sr) all.push_back(std::move(tc));
    return all;
  }();
  return cases;
}

void expect_same_matrix(const VulnMatrix& a, const VulnMatrix& b) {
  ASSERT_EQ(a.by_impl.size(), b.by_impl.size());
  for (const auto& [name, row] : a.by_impl) {
    auto it = b.by_impl.find(name);
    ASSERT_NE(it, b.by_impl.end()) << name;
    EXPECT_EQ(row.hrs, it->second.hrs) << name;
    EXPECT_EQ(row.hot, it->second.hot) << name;
    EXPECT_EQ(row.cpdos, it->second.cpdos) << name;
  }
  EXPECT_EQ(a.hrs_pairs, b.hrs_pairs);
  EXPECT_EQ(a.hot_pairs, b.hot_pairs);
  EXPECT_EQ(a.cpdos_pairs, b.cpdos_pairs);
  EXPECT_EQ(a.vector_catalogue, b.vector_catalogue);
}

TEST(ParallelExecutor, ParallelRunIsBitIdenticalToSerial) {
  const std::vector<TestCase>& cases = probe_and_sr_cases();
  ASSERT_GT(cases.size(), 600u);  // probes + full SR set
  auto fleet = impls::make_all_implementations();
  net::Chain chain = net::Chain::from_fleet(fleet);

  // jobs=1 memoize=off is exactly the seed's serial loop: the baseline.
  ExecutorConfig serial_config;
  serial_config.jobs = 1;
  serial_config.memoize = false;
  ExecutorStats serial_stats;
  DetectionResult serial =
      ParallelExecutor(serial_config).run(chain, cases, &serial_stats);
  VulnMatrix serial_matrix = build_matrix(serial, cases);
  EXPECT_EQ(serial_stats.jobs, 1u);
  EXPECT_EQ(serial_stats.cases, cases.size());
  EXPECT_EQ(serial_stats.memo_hits + serial_stats.memo_misses, 0u);
  EXPECT_EQ(serial_stats.verdict_hits + serial_stats.verdict_misses, 0u);

  struct Variant {
    std::size_t jobs;
    bool memoize;
  };
  for (const Variant v : {Variant{1, true}, Variant{8, false},
                          Variant{8, true}}) {
    SCOPED_TRACE("jobs=" + std::to_string(v.jobs) +
                 " memoize=" + std::to_string(v.memoize));
    ExecutorConfig config;
    config.jobs = v.jobs;
    config.memoize = v.memoize;
    ExecutorStats stats;
    DetectionResult result =
        ParallelExecutor(config).run(chain, cases, &stats);
    expect_same_findings(serial, result);
    expect_same_matrix(serial_matrix, build_matrix(result, cases));
    EXPECT_EQ(stats.jobs, v.jobs);
    EXPECT_EQ(stats.cases, cases.size());
    if (v.memoize) {
      EXPECT_EQ(stats.memo_hits + stats.memo_misses, cases.size());
    } else {
      EXPECT_EQ(stats.memo_hits + stats.memo_misses, 0u);
    }
  }
}

TEST(ParallelExecutor, MemoHitsOnDuplicateCasesKeepFindingsIdentical) {
  // Duplicate the probe set so the memo must serve hits, including from
  // concurrent workers; findings must not change and the echo log must
  // still count every duplicate's forwards.
  std::vector<TestCase> cases = verification_probes();
  const std::size_t unique = cases.size();
  std::vector<TestCase> doubled = cases;
  for (TestCase tc : cases) {
    tc.uuid += "-dup";
    doubled.push_back(std::move(tc));
  }

  auto fleet = impls::make_all_implementations();
  net::Chain chain = net::Chain::from_fleet(fleet);

  ExecutorConfig baseline;
  baseline.jobs = 1;
  baseline.memoize = false;
  ExecutorStats base_stats;
  DetectionResult expected =
      ParallelExecutor(baseline).run(chain, doubled, &base_stats);

  // Serial memoized run: execution order is the list order, so every
  // duplicate is guaranteed to hit the original's entry.
  ExecutorConfig memoized;
  memoized.jobs = 1;
  memoized.memoize = true;
  ExecutorStats stats;
  DetectionResult result =
      ParallelExecutor(memoized).run(chain, doubled, &stats);

  expect_same_findings(expected, result);
  EXPECT_EQ(stats.memo_hits, unique);  // every duplicate is a hit
  EXPECT_EQ(stats.memo_misses, unique);
  // Echo sees the duplicates' forwards too (memo replays them into the log).
  EXPECT_EQ(stats.echo_records + stats.echo_dropped,
            base_stats.echo_records + base_stats.echo_dropped);

  // Concurrent smoke (meaningful under HDIFF_SANITIZE=thread): workers may
  // race a duplicate against its original, so only the total find count is
  // deterministic — findings still must not change.
  ExecutorConfig concurrent;
  concurrent.jobs = 8;
  concurrent.memoize = true;
  ExecutorStats cstats;
  DetectionResult cresult =
      ParallelExecutor(concurrent).run(chain, doubled, &cstats);
  expect_same_findings(expected, cresult);
  EXPECT_EQ(cstats.memo_hits + cstats.memo_misses, doubled.size());
  EXPECT_LE(cstats.memo_hits, unique);
}

// ---- fault injection / graceful degradation -------------------------------

// A two-implementation chain (one proxy, one server) where the per-attempt
// call sequence is small enough to reason about exactly.
struct TinyFixture {
  std::vector<std::unique_ptr<impls::HttpImplementation>> fleet;
  std::vector<std::unique_ptr<impls::HttpImplementation>> faulty;
  std::shared_ptr<net::FaultPlan> plan;

  explicit TinyFixture(net::FaultPlanConfig config) {
    fleet.push_back(impls::make_implementation("squid"));
    fleet.push_back(impls::make_implementation("apache"));
    plan = std::make_shared<net::FaultPlan>(config);
    faulty = net::wrap_fleet_with_faults(fleet, plan);
  }
};

TestCase plain_case(std::string uuid) {
  TestCase tc;
  tc.uuid = std::move(uuid);
  tc.raw = "GET /?a=1 HTTP/1.1\r\nHost: h1.com\r\n\r\n";
  tc.description = "fault-harness probe";
  return tc;
}

TEST(ParallelExecutor, PersistentFaultQuarantinesWithExactCounters) {
  // every_nth=1: every model call faults, so the case can never be observed.
  net::FaultPlanConfig config;
  config.every_nth = 1;
  config.kinds = {net::FaultKind::kReset};
  TinyFixture fx(config);
  net::Chain chain = net::Chain::from_fleet(fx.faulty);

  ExecutorConfig exec;
  exec.jobs = 1;
  exec.memoize = false;
  exec.retry.attempts = 3;
  exec.retry.backoff_base_ms = 0;
  exec.retry.backoff_max_ms = 0;
  ExecutorStats stats;
  const std::vector<TestCase> cases = {plain_case("q1")};
  DetectionResult result = ParallelExecutor(exec).run(chain, cases, &stats);

  // A quarantined case produces no findings — and exact counters.
  EXPECT_TRUE(result.violations.empty());
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(stats.quarantined_cases, 1u);
  EXPECT_EQ(stats.faulted_attempts, 3u);
  EXPECT_EQ(stats.retry_attempts, 2u);
  EXPECT_EQ(stats.recovered_cases, 0u);
  EXPECT_EQ(stats.fault_counts[static_cast<std::size_t>(net::ChainError::kReset)],
            3u);
  ASSERT_EQ(stats.quarantined.size(), 1u);
  EXPECT_EQ(stats.quarantined[0].uuid, "q1");
  EXPECT_EQ(stats.quarantined[0].error, net::ChainError::kReset);
  EXPECT_EQ(stats.quarantined[0].attempts, 3u);
  EXPECT_NE(stats.quarantined[0].detail.find("reset fault injected"),
            std::string::npos);
  // Echo log stays clean: no partial forwards from the aborted attempts.
  EXPECT_EQ(stats.echo_records + stats.echo_dropped, 0u);
}

TEST(ParallelExecutor, CaseDeadlineShortCircuitsRetries) {
  net::FaultPlanConfig config;
  config.every_nth = 1;
  config.kinds = {net::FaultKind::kStall};  // each attempt sleeps delay_ms
  config.delay_ms = 5;
  TinyFixture fx(config);
  net::Chain chain = net::Chain::from_fleet(fx.faulty);

  ExecutorConfig exec;
  exec.jobs = 1;
  exec.retry.attempts = 1000;  // deadline, not the attempt cap, must stop us
  exec.retry.backoff_base_ms = 0;
  exec.retry.backoff_max_ms = 0;
  exec.retry.case_deadline_ms = 15;
  ExecutorStats stats;
  const std::vector<TestCase> cases = {plain_case("d1")};
  ParallelExecutor(exec).run(chain, cases, &stats);

  ASSERT_EQ(stats.quarantined.size(), 1u);
  EXPECT_EQ(stats.quarantined[0].error, net::ChainError::kTimeout);
  EXPECT_NE(stats.quarantined[0].detail.find("case deadline exceeded"),
            std::string::npos);
  EXPECT_LT(stats.quarantined[0].attempts, 1000u);
}

TEST(ParallelExecutor, BudgetedFaultsRecoverToFaultFreeFindings) {
  // rate=1.0 + a one-fault budget: every call site faults exactly once, so
  // with enough retries the case converges to a clean observation that must
  // match the fault-free chain byte for byte.
  TinyFixture clean(net::FaultPlanConfig{});  // rate 0: reference
  net::Chain clean_chain = net::Chain::from_fleet(clean.fleet);
  const std::vector<TestCase> cases = {plain_case("r1")};
  ExecutorConfig base;
  base.jobs = 1;
  base.memoize = false;
  ExecutorStats clean_stats;
  DetectionResult expected =
      ParallelExecutor(base).run(clean_chain, cases, &clean_stats);

  net::FaultPlanConfig config;
  config.rate = 1.0;
  config.max_faults_per_site = 1;
  TinyFixture fx(config);
  net::Chain chain = net::Chain::from_fleet(fx.faulty);
  ExecutorConfig exec = base;
  exec.retry.attempts = 16;
  exec.retry.backoff_base_ms = 0;
  exec.retry.backoff_max_ms = 0;
  ExecutorStats stats;
  DetectionResult result = ParallelExecutor(exec).run(chain, cases, &stats);

  expect_same_findings(expected, result);
  EXPECT_EQ(stats.quarantined_cases, 0u);
  EXPECT_EQ(stats.recovered_cases, 1u);
  EXPECT_GT(stats.faulted_attempts, 0u);
  EXPECT_EQ(stats.retry_attempts, stats.faulted_attempts);  // last attempt clean
  // Echo counters equal the fault-free run: aborted attempts left no trace.
  EXPECT_EQ(stats.echo_records + stats.echo_dropped,
            clean_stats.echo_records + clean_stats.echo_dropped);
}

TEST(ParallelExecutor, FaultInjectedRunKeepsFindingsIdenticalAcrossSchedules) {
  // The acceptance run: the full probe set through the full fleet with an
  // intermittent fault plan.  Findings must be identical to the fault-free
  // run, with zero quarantine, for every jobs/memoize combination — and the
  // fault/retry counters must be schedule-independent too (victim selection
  // is a pure hash of the call site).
  const std::vector<TestCase> cases = verification_probes();
  auto fleet = impls::make_all_implementations();
  net::Chain clean_chain = net::Chain::from_fleet(fleet);
  ExecutorConfig base;
  base.jobs = 1;
  base.memoize = false;
  ExecutorStats clean_stats;
  DetectionResult expected =
      ParallelExecutor(base).run(clean_chain, cases, &clean_stats);

  struct Variant {
    std::size_t jobs;
    bool memoize;
  };
  std::vector<ExecutorStats> all_stats;
  for (const Variant v :
       {Variant{1, false}, Variant{8, false}, Variant{1, true},
        Variant{8, true}}) {
    SCOPED_TRACE("jobs=" + std::to_string(v.jobs) +
                 " memoize=" + std::to_string(v.memoize));
    // Fresh plan per variant: the per-site fault budget is plan state, and
    // the point is that every schedule sees the *same* fault world.
    net::FaultPlanConfig config;
    config.seed = 7;
    config.rate = 0.3;  // ~30% of call sites are victims
    config.max_faults_per_site = 1;
    config.kinds = {net::FaultKind::kReset, net::FaultKind::kTruncate,
                    net::FaultKind::kConnectFail};
    auto plan = std::make_shared<net::FaultPlan>(config);
    auto faulty = net::wrap_fleet_with_faults(fleet, plan);
    net::Chain chain = net::Chain::from_fleet(faulty);

    ExecutorConfig exec;
    exec.jobs = v.jobs;
    exec.memoize = v.memoize;
    exec.retry.attempts = 256;  // a case can touch many distinct victim sites
    exec.retry.backoff_base_ms = 0;
    exec.retry.backoff_max_ms = 0;
    ExecutorStats stats;
    DetectionResult result = ParallelExecutor(exec).run(chain, cases, &stats);
    expect_same_findings(expected, result);
    expect_same_matrix(build_matrix(expected, cases),
                       build_matrix(result, cases));
    EXPECT_EQ(stats.quarantined_cases, 0u);
    EXPECT_GT(stats.recovered_cases, 0u);
    EXPECT_GT(stats.retry_attempts, 0u);
    EXPECT_EQ(stats.retry_attempts, stats.faulted_attempts);
    EXPECT_EQ(stats.echo_records + stats.echo_dropped,
              clean_stats.echo_records + clean_stats.echo_dropped);
    all_stats.push_back(std::move(stats));
  }
  // With a one-fault budget, each distinct victim site faults exactly once
  // no matter which worker or attempt touches it first, so the *total*
  // fault count is schedule-independent even though its distribution over
  // cases is not.
  for (const ExecutorStats& stats : all_stats) {
    std::size_t by_error = 0;
    for (std::size_t k = 0; k < net::kChainErrorCount; ++k) {
      by_error += stats.fault_counts[k];
    }
    EXPECT_EQ(by_error, stats.faulted_attempts);
    EXPECT_EQ(stats.faulted_attempts, all_stats.front().faulted_attempts);
  }
}

TEST(ParallelExecutor, PersistentFaultQuarantineIsDeterministicAcrossJobs) {
  // max_faults_per_site=0: victim sites never recover, so the quarantine
  // list is a pure function of the seed — identical across thread counts,
  // memoization settings and repeated runs, and reported in case order.
  const std::vector<TestCase> cases = verification_probes();
  auto fleet = impls::make_all_implementations();

  const auto run_once = [&](std::size_t jobs, bool memoize) {
    net::FaultPlanConfig config;
    config.seed = 11;
    // A case touches ~100 call sites, so even a small per-site rate
    // quarantines a visible-but-partial slice of the probe set.
    config.rate = 0.005;
    config.max_faults_per_site = 0;  // persistent
    auto plan = std::make_shared<net::FaultPlan>(config);
    auto faulty = net::wrap_fleet_with_faults(fleet, plan);
    net::Chain chain = net::Chain::from_fleet(faulty);
    ExecutorConfig exec;
    exec.jobs = jobs;
    exec.memoize = memoize;
    exec.retry.attempts = 3;
    exec.retry.backoff_base_ms = 0;
    exec.retry.backoff_max_ms = 0;
    ExecutorStats stats;
    DetectionResult result = ParallelExecutor(exec).run(chain, cases, &stats);
    return std::make_pair(std::move(result), std::move(stats));
  };

  auto [serial_result, serial_stats] = run_once(1, false);
  ASSERT_GT(serial_stats.quarantined_cases, 0u)
      << "rate 0.02 over the probe set should hit at least one case";
  EXPECT_LT(serial_stats.quarantined_cases, cases.size());
  for (const QuarantinedCase& q : serial_stats.quarantined) {
    EXPECT_EQ(q.attempts, 3u) << q.uuid;  // full retry budget spent
  }

  for (const auto& [jobs, memoize] :
       std::vector<std::pair<std::size_t, bool>>{{1, true}, {8, false},
                                                 {8, true}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                 " memoize=" + std::to_string(memoize));
    auto [result, stats] = run_once(jobs, memoize);
    expect_same_findings(serial_result, result);
    ASSERT_EQ(stats.quarantined.size(), serial_stats.quarantined.size());
    for (std::size_t i = 0; i < stats.quarantined.size(); ++i) {
      EXPECT_EQ(stats.quarantined[i].uuid, serial_stats.quarantined[i].uuid);
      EXPECT_EQ(stats.quarantined[i].error, serial_stats.quarantined[i].error);
    }
  }
}

}  // namespace
}  // namespace hdiff::core
