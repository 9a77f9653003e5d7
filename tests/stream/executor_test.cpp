// Stream cases on the parallel executor: a TestCase carrying per-message
// wires is observed over persistent connections and judged by the stream
// detectors, with the same index-order merge, memo and retry/quarantine
// path as a single request.  Run under the stream tsan/asan presets, this
// also covers the shared VerdictCache and hdiff_stream_* instruments being
// driven from several worker threads.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/executor.h"
#include "core/probes.h"
#include "core/stream_detect.h"
#include "impls/products.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "stream/seeds.h"

namespace hdiff::stream {
namespace {

core::TestCase stream_case(const std::string& uuid, const RequestStream& s) {
  core::TestCase tc;
  tc.uuid = uuid;
  tc.raw = s.to_wire();
  tc.stream = s.wires();
  tc.origin = core::TestOrigin::kMutation;
  return tc;
}

/// Every stream seed (one of them twice, for a memo hit), interleaved with
/// single-request probes.
std::vector<core::TestCase> mixed_cases() {
  std::vector<core::TestCase> cases;
  const auto probes = core::verification_probes();
  std::size_t p = 0;
  for (const auto& seed : default_stream_seeds()) {
    cases.push_back(probes.at(p++));
    cases.push_back(stream_case("s-" + seed.name, seed.stream));
  }
  cases.push_back(
      stream_case("s-again", default_stream_seeds().front().stream));
  return cases;
}

struct Delta {
  bool quarantined = false;
  std::vector<core::StreamFinding> streams;
  std::size_t pairs = 0;
};

std::vector<Delta> run_cases(const net::Chain& chain,
                             const std::vector<core::TestCase>& cases,
                             std::size_t jobs, obs::Registry* registry,
                             core::ExecutorStats* stats) {
  std::vector<Delta> out(cases.size());
  core::ExecutorConfig config;
  config.jobs = jobs;
  config.retry.backoff_base_ms = 0;
  config.retry.backoff_max_ms = 0;
  config.obs.metrics = registry;
  config.on_delta = [&](std::size_t i, const core::TestCase&,
                        const core::DetectionResult& delta, bool q) {
    out[i].quarantined = q;
    out[i].streams = delta.streams;
    out[i].pairs = delta.pairs.size();
  };
  core::ParallelExecutor(config).run(chain, cases, stats);
  return out;
}

TEST(StreamExecutor, StreamCasesMatchDirectObservationAtAnyJobs) {
  auto fleet = impls::make_all_implementations();
  const net::Chain chain = net::Chain::from_fleet(fleet);
  const std::vector<core::TestCase> cases = mixed_cases();
  const core::StreamDetector detector(chain);

  obs::Registry serial_registry;
  obs::Registry parallel_registry;
  core::ExecutorStats serial_stats;
  const auto serial = run_cases(chain, cases, 1, &serial_registry,
                                &serial_stats);
  const auto parallel = run_cases(chain, cases, 4, &parallel_registry,
                                  nullptr);
  ASSERT_EQ(serial.size(), cases.size());
  std::size_t stream_findings = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const core::TestCase& tc = cases[i];
    EXPECT_FALSE(serial[i].quarantined) << tc.uuid;
    if (tc.is_stream()) {
      // The executor's verdict is exactly the detector over a direct
      // observation of the same messages.
      const auto direct =
          detector.evaluate(chain.observe_stream(tc.uuid, tc.stream));
      ASSERT_EQ(serial[i].streams.size(), direct.findings.size()) << tc.uuid;
      for (std::size_t k = 0; k < direct.findings.size(); ++k) {
        EXPECT_EQ(serial[i].streams[k].detector, direct.findings[k].detector);
        EXPECT_EQ(serial[i].streams[k].components,
                  direct.findings[k].components);
      }
      EXPECT_EQ(serial[i].pairs, 0u) << tc.uuid;
      stream_findings += serial[i].streams.size();
    } else {
      EXPECT_TRUE(serial[i].streams.empty()) << tc.uuid;
    }
    ASSERT_EQ(parallel[i].streams.size(), serial[i].streams.size());
    for (std::size_t k = 0; k < serial[i].streams.size(); ++k) {
      EXPECT_EQ(parallel[i].streams[k].components,
                serial[i].streams[k].components);
    }
    EXPECT_EQ(parallel[i].pairs, serial[i].pairs) << tc.uuid;
  }
  EXPECT_GT(stream_findings, 0u);
  // The repeated seed is a memo hit, yet still counted as a finding.
  EXPECT_GE(serial_stats.memo_hits, 1u);
  // Serially the repeat is always a hit; in parallel both copies may miss
  // at once, so only the per-case counters must agree exactly.
  const std::size_t distinct_streams = default_stream_seeds().size();
  EXPECT_EQ(serial_registry.counter("hdiff_stream_observations_total").value(),
            distinct_streams);
  EXPECT_GE(
      parallel_registry.counter("hdiff_stream_observations_total").value(),
      distinct_streams);
  for (obs::Registry* r : {&serial_registry, &parallel_registry}) {
    EXPECT_EQ(r->counter("hdiff_executor_cases_total").value(), cases.size());
  }
  EXPECT_EQ(serial_registry.counter("hdiff_stream_boundary_desync_total")
                .value(),
            parallel_registry.counter("hdiff_stream_boundary_desync_total")
                .value());
}

TEST(StreamExecutor, FaultedStreamRetriesThenQuarantines) {
  auto fleet = impls::make_all_implementations();
  net::FaultPlanConfig plan_config;
  plan_config.rate = 1.0;
  plan_config.max_faults_per_site = 0;  // persistent
  plan_config.kinds = {net::FaultKind::kReset};
  auto faulty = net::wrap_fleet_with_faults(
      fleet, std::make_shared<net::FaultPlan>(plan_config));
  const net::Chain chain = net::Chain::from_fleet(faulty);

  const std::vector<core::TestCase> cases = {
      stream_case("s-fat", default_stream_seeds().front().stream)};
  core::ExecutorStats stats;
  const auto deltas = run_cases(chain, cases, 2, nullptr, &stats);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_TRUE(deltas[0].quarantined);
  EXPECT_TRUE(deltas[0].streams.empty());
  ASSERT_EQ(stats.quarantined.size(), 1u);
  EXPECT_EQ(stats.quarantined[0].uuid, "s-fat");
  EXPECT_EQ(stats.quarantined[0].error, net::ChainError::kReset);
  EXPECT_EQ(stats.quarantined[0].attempts, 3u);  // RetryPolicy default
  EXPECT_EQ(stats.retry_attempts, 2u);
  EXPECT_EQ(stats.quarantined_cases, 1u);
}

}  // namespace
}  // namespace hdiff::stream
