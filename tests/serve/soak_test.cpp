// A minute of random worker SIGKILLs against a daemon whose workers are
// forked from this test process: /healthz must never stay unready for more
// than two heartbeat intervals (a restart within one interval plus
// detection slack), and the daemon must still drain on POST
// /campaigns/default/stop.  Every build compiles it; ctest registers it
// only with -DHDIFF_SERVE_SOAK=ON (the `serve-soak` preset), under the
// label `serve-soak`.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/probes.h"
#include "impls/products.h"
#include "serve/control.h"
#include "serve/supervisor.h"

namespace hdiff::serve {
namespace {

constexpr std::chrono::seconds kSoak{60};
constexpr int kHeartbeatMs = 200;

TEST(ServeSoak, HealthzStaysReadyUnderRandomWorkerKills) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("hdiff-serve-soak-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  ServeConfig config;
  config.campaign.state_dir = dir.string();
  config.campaign.rounds = 1000000;  // until stopped
  config.campaign.budget_per_round = 24;
  config.campaign.executor.jobs = 1;
  config.campaign.bootstrap = core::verification_probes();
  config.shards = 4;
  config.worker_binary = "fork";  // any non-empty name forks workers
  config.heartbeat_interval_ms = kHeartbeatMs;
  config.quarantine_after = 1 << 20;  // the soak exercises respawn, not inline

  const auto fleet = impls::make_all_implementations();
  std::atomic<bool> run_done{false};
  std::atomic<long> max_unready_ms{0};
  std::atomic<long> kills{0};
  Supervisor supervisor(config, fleet);
  const std::uint16_t port = supervisor.port();

  // Killer: SIGKILL a live worker pid from /status every ~150 ms.
  std::thread killer([&] {
    std::size_t turn = 0;
    while (!run_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      const net::ControlProbe status = net::control_get(port, "GET", "/status");
      if (status.status != 200) continue;
      std::vector<long> pids;
      std::size_t at = 0;
      while ((at = status.body.find("\"pid\":", at)) != std::string::npos) {
        const long pid = std::atol(status.body.c_str() + at + 6);
        if (pid > 1) pids.push_back(pid);
        ++at;
      }
      if (pids.empty()) continue;
      ::kill(static_cast<pid_t>(pids[turn++ % pids.size()]), SIGKILL);
      kills.fetch_add(1);
    }
  });

  // Prober: GET /healthz every 20 ms; keep the longest unready streak.
  std::thread prober([&] {
    using Clock = std::chrono::steady_clock;
    Clock::time_point down_since{};
    bool down = false;
    while (!run_done.load()) {
      const int status = net::control_get(port, "GET", "/healthz").status;
      const Clock::time_point now = Clock::now();
      if (status == 200) {
        if (down) {
          const long ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              now - down_since)
                              .count();
          if (ms > max_unready_ms.load()) max_unready_ms.store(ms);
          down = false;
        }
      } else if (!down) {
        down = true;
        down_since = now;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  // Stopper: POST stop once the soak time is up.
  std::thread stopper([&] {
    const auto deadline = std::chrono::steady_clock::now() + kSoak;
    while (!run_done.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    while (!run_done.load()) {
      if (net::control_get(port, "POST", "/campaigns/default/stop").status ==
          202) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  const ServeReport report = supervisor.run();
  run_done.store(true);
  killer.join();
  prober.join();
  stopper.join();

  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.drained) << "the soak did not drain";
  EXPECT_GT(report.worker_deaths, 0u) << kills.load() << " kill(s) sent";
  EXPECT_LE(max_unready_ms.load(), 2L * kHeartbeatMs)
      << report.rounds_run << " round(s), " << kills.load() << " kill(s), "
      << report.worker_deaths << " death(s), " << report.worker_restarts
      << " restart(s)";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hdiff::serve
