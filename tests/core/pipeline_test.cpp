// End-to-end pipeline integration: the paper's headline results (Table I
// matrix, the nine HoT pairs) must reproduce from corpus to findings, and a
// fleet that resets, truncates and stalls must not invent a finding.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <set>
#include <string>

#include "core/hdiff.h"
#include "impls/products.h"
#include "net/fault.h"

#include "expect_findings.h"

namespace hdiff::core {
namespace {

const PipelineResult& result() {
  static const PipelineResult kResult = [] {
    PipelineConfig config;
    config.abnf_run_budget = 800;
    return Pipeline(config).run();
  }();
  return kResult;
}

TEST(Pipeline, ReproducesTableIVulnerabilityMatrix) {
  // Paper Table I, exactly.
  struct Expected {
    const char* impl;
    bool hrs, hot, cpdos;
  };
  constexpr Expected kTableI[] = {
      {"iis", true, true, false},     {"tomcat", true, true, false},
      {"weblogic", true, true, false},{"lighttpd", true, false, false},
      {"apache", false, false, true}, {"nginx", false, true, true},
      {"varnish", true, true, true},  {"squid", true, false, true},
      {"haproxy", true, true, true},  {"ats", true, false, true},
  };
  const auto& matrix = result().matrix;
  for (const auto& e : kTableI) {
    const auto& row = matrix.by_impl.at(e.impl);
    EXPECT_EQ(row.hrs, e.hrs) << e.impl << " HRS";
    EXPECT_EQ(row.hot, e.hot) << e.impl << " HoT";
    EXPECT_EQ(row.cpdos, e.cpdos) << e.impl << " CPDoS";
  }
}

TEST(Pipeline, ReproducesNineHotPairs) {
  // §IV: "Nine different servers pairs (e.g., Varnish-IIS, Nginx-Weblogic)
  // are vulnerable to HoT attacks."
  const auto& pairs = result().matrix.hot_pairs;
  EXPECT_EQ(pairs.size(), 9u);
  for (auto front : {"nginx", "varnish", "haproxy"}) {
    for (auto back : {"iis", "tomcat", "weblogic"}) {
      EXPECT_TRUE(pairs.contains(std::string(front) + "->" + back))
          << front << "->" << back;
    }
  }
}

TEST(Pipeline, AllProxiesCpdosAffected) {
  // §IV: "all HTTP proxies could be affected by our ... CPDoS attacks".
  std::set<std::string> fronts;
  for (const auto& key : result().matrix.cpdos_pairs) {
    fronts.insert(key.substr(0, key.find("->")));
  }
  for (auto proxy : {"apache", "nginx", "varnish", "squid", "haproxy", "ats"}) {
    EXPECT_TRUE(fronts.contains(proxy)) << proxy;
  }
}

TEST(Pipeline, HrsPairsExist) {
  EXPECT_FALSE(result().matrix.hrs_pairs.empty());
}

TEST(Pipeline, ViolationAndDiscrepancyVolume) {
  // §IV-B: "HDiff further found a number of (more than 100) violations of
  // SRs and discrepancies in different HTTP implementations."
  const auto& f = result().findings;
  EXPECT_GT(f.violations.size() + f.discrepancies.inputs_with_discrepancy,
            100u);
}

TEST(Pipeline, VectorCatalogueCoversTableIiRows) {
  const auto& catalogue = result().matrix.vector_catalogue;
  for (auto label :
       {"Invalid HTTP-version", "Bad absolute-URI vs Host",
        "Fat HEAD/GET request", "Invalid CL/TE header",
        "Multiple CL/TE headers", "Invalid Host header",
        "Hop-by-Hop headers", "Expect header", "Bad chunk-size value"}) {
    EXPECT_TRUE(catalogue.contains(label)) << label;
  }
}

TEST(Pipeline, GenerationVolumeReported) {
  EXPECT_GT(result().sr_case_count, 150u);
  EXPECT_GT(result().abnf_case_count, 1000u);
  EXPECT_GE(result().executed_cases.size(), 800u);
}

TEST(Pipeline, AnalysisStatisticsPresent) {
  const auto& a = result().analysis;
  EXPECT_GT(a.total_words, 4000u);
  EXPECT_GT(a.srs.size(), 60u);
  EXPECT_GT(a.grammar.size(), 100u);
}

// ---- graceful degradation (E10) --------------------------------------------

/// What each finding claims, without the case that witnessed it.
std::set<std::string> finding_keys(const DetectionResult& r) {
  std::set<std::string> keys;
  for (const auto& p : r.pairs) {
    keys.insert("pair " + p.front + "|" + p.back + "|" +
                std::string(to_string(p.attack)));
  }
  for (const auto& v : r.violations) {
    keys.insert("violation " + v.impl + "|" + v.sr_id);
  }
  return keys;
}

struct FaultRow {
  const char* name;
  net::FaultPlanConfig plan;
};

// A stable test name: gtest's default byte dump of a row embeds addresses.
void PrintTo(const FaultRow& row, std::ostream* os) { *os << row.name; }

class FaultPlanProof : public ::testing::TestWithParam<FaultRow> {};

TEST_P(FaultPlanProof, FaultyFleetFilesNoFindingTheCleanRunLacks) {
  // A case can touch many distinct victim sites (one per model leg), so the
  // retry budget is generous; faults are in-process, so no backoff.
  PipelineConfig config;
  config.executor.retry.attempts = 64;
  config.executor.retry.backoff_base_ms = 0;
  config.executor.retry.backoff_max_ms = 0;
  const Pipeline pipeline(config);
  const auto fleet = impls::make_all_implementations();
  const PipelineResult clean = pipeline.run(fleet);

  auto plan = std::make_shared<net::FaultPlan>(GetParam().plan);
  const PipelineResult faulty =
      pipeline.run(net::wrap_fleet_with_faults(fleet, plan));
  const ExecutorStats& es = faulty.exec_stats;
  ASSERT_GT(plan->stats().injected, 0u) << "the plan injected no fault";
  EXPECT_GT(es.recovered_cases, 0u);

  const std::set<std::string> clean_keys = finding_keys(clean.findings);
  for (const std::string& key : finding_keys(faulty.findings)) {
    EXPECT_TRUE(clean_keys.contains(key)) << "false differential: " << key;
  }
  // With every case recovered, the findings are byte-identical.
  if (es.quarantined_cases == 0) {
    expect_same_findings(clean.findings, faulty.findings);
  }
}

net::FaultPlanConfig fault_plan(std::size_t max_faults_per_site) {
  net::FaultPlanConfig plan;
  plan.rate = 0.3;
  plan.seed = 1;
  plan.max_faults_per_site = max_faults_per_site;
  return plan;
}

net::FaultPlanConfig harsher_plan() {
  net::FaultPlanConfig plan = fault_plan(2);
  plan.kinds = {net::FaultKind::kDelay, net::FaultKind::kStall,
                net::FaultKind::kReset, net::FaultKind::kTruncate,
                net::FaultKind::kConnectFail};
  plan.delay_ms = 0;
  return plan;
}

INSTANTIATE_TEST_SUITE_P(
    E10, FaultPlanProof,
    ::testing::Values(FaultRow{"DefaultPlan", fault_plan(1)},
                      FaultRow{"HarsherPlan", harsher_plan()}),
    [](const ::testing::TestParamInfo<FaultRow>& row) {
      return std::string(row.param.name);
    });

}  // namespace
}  // namespace hdiff::core
