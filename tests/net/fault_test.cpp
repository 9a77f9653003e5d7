// FaultPlan / FaultyImplementation / Chain fault-channel tests.
#include "net/fault.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "impls/products.h"
#include "net/chain.h"

namespace hdiff::net {
namespace {

const std::string kPlainGet = "GET /?a=1 HTTP/1.1\r\nHost: h1.com\r\n\r\n";

std::vector<std::unique_ptr<impls::HttpImplementation>> two_impl_fleet() {
  std::vector<std::unique_ptr<impls::HttpImplementation>> fleet;
  fleet.push_back(impls::make_implementation("squid"));
  fleet.push_back(impls::make_implementation("apache"));
  return fleet;
}

TEST(FaultPlan, DecisionsAreDeterministicAcrossInstances) {
  FaultPlanConfig config;
  config.seed = 42;
  config.rate = 0.5;
  config.max_faults_per_site = 0;  // persistent: decisions depend only on site
  FaultPlan a(config);
  FaultPlan b(config);
  const char* ops[] = {"parse", "forward", "respond", "relay"};
  const char* impls[] = {"squid", "apache", "nginx"};
  int victims = 0;
  for (const char* op : ops) {
    for (const char* impl : impls) {
      for (int i = 0; i < 8; ++i) {
        std::string bytes = kPlainGet + std::to_string(i);
        auto da = a.decide(op, impl, bytes);
        auto db = b.decide(op, impl, bytes);
        EXPECT_EQ(da.has_value(), db.has_value());
        if (da && db) {
          EXPECT_EQ(*da, *db);
        }
        EXPECT_EQ(da.has_value(), a.is_victim_site(op, impl, bytes));
        victims += da.has_value();
      }
    }
  }
  EXPECT_GT(victims, 0);                             // rate=0.5 selects some...
  EXPECT_LT(victims, 4 * 3 * 8);                     // ...but not all
  EXPECT_EQ(a.stats().calls, 4u * 3u * 8u);
  EXPECT_EQ(a.stats().injected, static_cast<std::size_t>(victims));
}

TEST(FaultPlan, SeedChangesVictimSet) {
  FaultPlanConfig config;
  config.rate = 0.5;
  config.seed = 1;
  FaultPlan a(config);
  config.seed = 2;
  FaultPlan b(config);
  int differs = 0;
  for (int i = 0; i < 64; ++i) {
    std::string bytes = "req" + std::to_string(i);
    differs += a.is_victim_site("parse", "apache", bytes) !=
               b.is_victim_site("parse", "apache", bytes);
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultPlan, VictimSiteRecoversAfterBudget) {
  FaultPlanConfig config;
  config.rate = 1.0;  // every site is a victim
  config.max_faults_per_site = 2;
  FaultPlan plan(config);
  EXPECT_TRUE(plan.decide("parse", "apache", kPlainGet).has_value());
  EXPECT_TRUE(plan.decide("parse", "apache", kPlainGet).has_value());
  // Budget spent: the site now behaves normally forever.
  EXPECT_FALSE(plan.decide("parse", "apache", kPlainGet).has_value());
  EXPECT_FALSE(plan.decide("parse", "apache", kPlainGet).has_value());
  // Distinct site, fresh budget.
  EXPECT_TRUE(plan.decide("respond", "apache", kPlainGet).has_value());
  EXPECT_EQ(plan.stats().injected, 3u);
}

TEST(FaultPlan, EveryNthCyclesThroughKinds) {
  FaultPlanConfig config;
  config.every_nth = 2;
  config.kinds = {FaultKind::kReset, FaultKind::kConnectFail};
  FaultPlan plan(config);
  std::vector<std::optional<FaultKind>> seen;
  for (int i = 0; i < 8; ++i) {
    seen.push_back(plan.decide("parse", "apache", std::to_string(i)));
  }
  // Calls 2, 4, 6, 8 fault (1-indexed every-2nd), kinds cycling.
  EXPECT_FALSE(seen[0].has_value());
  ASSERT_TRUE(seen[1].has_value());
  EXPECT_FALSE(seen[2].has_value());
  ASSERT_TRUE(seen[3].has_value());
  ASSERT_TRUE(seen[5].has_value());
  ASSERT_TRUE(seen[7].has_value());
  EXPECT_NE(*seen[1], *seen[3]);  // cycles through the kind list
  EXPECT_EQ(*seen[1], *seen[5]);
}

TEST(FaultyImplementation, ZeroRatePassesThroughVerbatim) {
  auto apache = impls::make_implementation("apache");
  auto plan = std::make_shared<FaultPlan>(FaultPlanConfig{});  // rate 0
  FaultyImplementation faulty(*apache, plan);
  EXPECT_EQ(faulty.name(), apache->name());
  EXPECT_EQ(faulty.is_server(), apache->is_server());
  impls::ServerVerdict direct = apache->parse_request(kPlainGet);
  impls::ServerVerdict wrapped = faulty.parse_request(kPlainGet);
  EXPECT_EQ(wrapped.accepted(), direct.accepted());
  EXPECT_EQ(wrapped.status, direct.status);
  EXPECT_EQ(faulty.respond(kPlainGet), apache->respond(kPlainGet));
  EXPECT_GT(plan->stats().calls, 0u);
  EXPECT_EQ(plan->stats().injected, 0u);
}

TEST(FaultyImplementation, ThrowsMappedChainFault) {
  auto apache = impls::make_implementation("apache");
  const struct {
    FaultKind kind;
    ChainError expected;
  } kMap[] = {
      {FaultKind::kReset, ChainError::kReset},
      {FaultKind::kTruncate, ChainError::kTruncated},
      {FaultKind::kConnectFail, ChainError::kConnectFail},
      {FaultKind::kStall, ChainError::kTimeout},
  };
  for (const auto& m : kMap) {
    FaultPlanConfig config;
    config.every_nth = 1;
    config.kinds = {m.kind};
    config.delay_ms = 0;
    FaultyImplementation faulty(*apache,
                                std::make_shared<FaultPlan>(config));
    try {
      (void)faulty.parse_request(kPlainGet);
      FAIL() << "expected ChainFault for " << to_string(m.kind);
    } catch (const ChainFault& fault) {
      EXPECT_EQ(fault.error(), m.expected) << to_string(m.kind);
      EXPECT_NE(std::string(fault.what()).find("parse"), std::string::npos);
    }
  }
}

TEST(FaultyImplementation, DelayFaultAnswersNormally) {
  auto apache = impls::make_implementation("apache");
  FaultPlanConfig config;
  config.every_nth = 1;
  config.kinds = {FaultKind::kDelay};
  config.delay_ms = 0;
  auto plan = std::make_shared<FaultPlan>(config);
  FaultyImplementation faulty(*apache, plan);
  EXPECT_EQ(faulty.respond(kPlainGet), apache->respond(kPlainGet));
  EXPECT_EQ(plan->stats().injected, 1u);
}

TEST(Chain, FaultedObservationIsStructuredAndEchoFree) {
  auto fleet = two_impl_fleet();
  FaultPlanConfig config;
  config.every_nth = 1;  // first model call faults
  config.kinds = {FaultKind::kReset};
  auto plan = std::make_shared<FaultPlan>(config);
  auto faulty_fleet = wrap_fleet_with_faults(fleet, plan);
  Chain chain = Chain::from_fleet(faulty_fleet);
  EchoServer echo;
  ChainObservation obs = chain.observe("f1", kPlainGet, &echo);
  EXPECT_TRUE(obs.faulted());
  EXPECT_EQ(obs.fault, ChainError::kReset);
  EXPECT_FALSE(obs.fault_detail.empty());
  // No half-observed verdicts and no partial echo records.
  EXPECT_TRUE(obs.proxies.empty());
  EXPECT_TRUE(obs.replays.empty());
  EXPECT_TRUE(obs.relays.empty());
  EXPECT_TRUE(obs.direct.empty());
  EXPECT_EQ(echo.offered(), 0u);
  EXPECT_TRUE(echo.log().empty());
}

TEST(Chain, MidObservationFaultLeavesNoPartialEcho) {
  // rate=1.0 with a one-fault budget: attempt 1 faults at the forward leg,
  // attempt 2 gets past the forward (normally an echo record) and faults
  // deeper in — the aborted observations must flush nothing, and only the
  // final clean attempt contributes echo records, exactly as many as a
  // fault-free observation would.
  auto fleet = two_impl_fleet();
  EchoServer clean_echo;
  Chain::from_fleet(fleet).observe("f2", kPlainGet, &clean_echo);
  const std::size_t clean_records = clean_echo.offered();
  ASSERT_GT(clean_records, 0u);

  FaultPlanConfig config;
  config.rate = 1.0;
  config.max_faults_per_site = 1;
  config.kinds = {FaultKind::kTruncate};
  auto plan = std::make_shared<FaultPlan>(config);
  auto faulty_fleet = wrap_fleet_with_faults(fleet, plan);
  Chain chain = Chain::from_fleet(faulty_fleet);
  EchoServer echo;
  ChainObservation obs = chain.observe("f2", kPlainGet, &echo);
  EXPECT_TRUE(obs.faulted());
  EXPECT_EQ(obs.fault, ChainError::kTruncated);
  EXPECT_EQ(echo.offered(), 0u);

  int faulted_attempts = 1;
  while (obs.faulted() && faulted_attempts < 16) {
    EXPECT_EQ(echo.offered(), 0u);  // aborted attempts leave no partial echo
    obs = chain.observe("f2", kPlainGet, &echo);
    faulted_attempts += obs.faulted();
  }
  ASSERT_FALSE(obs.faulted());
  EXPECT_GE(faulted_attempts, 2);  // at least one fault was mid-observation
  EXPECT_EQ(echo.offered(), clean_records);
}

TEST(Chain, RecoveredObservationMatchesFaultFree) {
  auto fleet = two_impl_fleet();
  Chain clean_chain = Chain::from_fleet(fleet);
  ChainObservation expected = clean_chain.observe("r1", kPlainGet);

  FaultPlanConfig config;
  config.rate = 1.0;  // every site faults exactly once, then recovers
  config.max_faults_per_site = 1;
  auto plan = std::make_shared<FaultPlan>(config);
  auto faulty_fleet = wrap_fleet_with_faults(fleet, plan);
  Chain chain = Chain::from_fleet(faulty_fleet);

  ChainObservation obs;
  int attempts = 0;
  do {
    obs = chain.observe("r1", kPlainGet);
    ++attempts;
  } while (obs.faulted() && attempts < 32);
  ASSERT_FALSE(obs.faulted()) << "did not recover in " << attempts;
  EXPECT_GT(attempts, 1);  // at least one attempt actually faulted
  EXPECT_EQ(obs.proxies.size(), expected.proxies.size());
  EXPECT_EQ(obs.replays.size(), expected.replays.size());
  EXPECT_EQ(obs.direct.size(), expected.direct.size());
  for (const auto& [name, v] : expected.proxies) {
    ASSERT_TRUE(obs.proxies.count(name));
    EXPECT_EQ(obs.proxies.at(name).forwarded_bytes, v.forwarded_bytes);
  }
  for (const auto& [key, v] : expected.direct) {
    ASSERT_TRUE(obs.direct.count(key));
    EXPECT_EQ(obs.direct.at(key).status, v.status);
  }
}

TEST(EchoServer, CountersReadableWhileRecording) {
  // offered()/dropped() are atomic: hammer them from a reader while writers
  // record (exercised under TSan by the sanitizer job).
  EchoServer echo(8);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::size_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      sink += echo.offered() + echo.dropped();
    }
    EXPECT_GE(sink, 0u);
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&echo, w] {
      for (int i = 0; i < 64; ++i) {
        echo.record('u' + std::to_string(w), "squid", "bytes");
      }
    });
  }
  for (auto& t : writers) t.join();
  stop = true;
  reader.join();
  EXPECT_EQ(echo.offered(), 4u * 64u);
  EXPECT_EQ(echo.dropped(), 4u * 64u - 8u);
  EXPECT_EQ(echo.log().size(), 8u);
}

}  // namespace
}  // namespace hdiff::net
