// The `hdiff serve` layer: deterministic shard assignment, durable shard
// result files (torn/stale rejection, hole detection on merge), the
// control-plane HTTP pump and its client, and the supervisor itself —
// in-process shards byte-identical to the single-process engine, workers
// killed on every spawn degraded into quarantined inline execution without
// losing the round, a forked worker's fd hygiene, and workers forked from
// this test process leaving the single-process bytes under SIGKILLs, a
// hang, and a drain + resume.
#include "serve/supervisor.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/engine.h"
#include "campaign/shard.h"
#include "campaign/store.h"
#include "core/probes.h"
#include "impls/products.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/control.h"
#include "serve/flight.h"
#include "serve/introspect.h"
#include "serve/worker.h"

#include "../campaign/coverage_fixture.h"

namespace hdiff::serve {
namespace {

namespace fs = std::filesystem;
using campaign::CaseOutcome;
using campaign::PlannedCase;
using campaign::ShardResult;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::temp_directory_path() /
                       ("hdiff-serve-test-" + std::to_string(::getpid()) +
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

// ---- shard assignment -----------------------------------------------------

TEST(Shard, AssignmentIsDeterministicAndInRange) {
  for (std::size_t shards : {1u, 2u, 4u, 7u}) {
    for (int i = 0; i < 64; ++i) {
      const std::string raw = "GET /case" + std::to_string(i) + " HTTP/1.1";
      const std::size_t s = campaign::shard_of(raw, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, campaign::shard_of(raw, shards));  // pure function
    }
  }
  // shards == 0 must not divide by zero; it means "one shard".
  EXPECT_EQ(campaign::shard_of("x", 0), 0u);
}

TEST(Shard, AssignmentActuallySpreadsCases) {
  std::vector<std::size_t> hits(4, 0);
  for (int i = 0; i < 256; ++i) {
    ++hits[campaign::shard_of("case-" + std::to_string(i), 4)];
  }
  for (std::size_t k = 0; k < 4; ++k) EXPECT_GT(hits[k], 0u) << "shard " << k;
}

TEST(Shard, IndicesPartitionThePlan) {
  std::vector<PlannedCase> planned(32);
  for (std::size_t i = 0; i < planned.size(); ++i) {
    planned[i].tc.raw = "GET /p" + std::to_string(i) + " HTTP/1.1\r\n\r\n";
  }
  const std::size_t shards = 4;
  std::vector<bool> owned(planned.size(), false);
  for (std::size_t k = 0; k < shards; ++k) {
    std::size_t prev = 0;
    bool first = true;
    for (std::size_t idx : campaign::shard_indices(planned, k, shards)) {
      ASSERT_LT(idx, planned.size());
      EXPECT_FALSE(owned[idx]) << "index " << idx << " owned twice";
      owned[idx] = true;
      if (!first) {
        EXPECT_GT(idx, prev) << "indices not ascending";
      }
      prev = idx;
      first = false;
    }
  }
  for (std::size_t i = 0; i < planned.size(); ++i) {
    EXPECT_TRUE(owned[i]) << "index " << i << " owned by no shard";
  }
}

// ---- shard result files ---------------------------------------------------

ShardResult sample_result() {
  ShardResult result;
  result.round = 3;
  result.shard = 1;
  result.shards = 4;
  result.config_sig = "sig-abc";
  result.faulted_attempts = 5;
  result.retry_attempts = 4;
  result.recovered_cases = 2;
  result.quarantined_cases = 1;
  CaseOutcome hit;
  hit.executed = true;
  campaign::Signature sig;
  sig.detector = "HRS";
  sig.vector = {"apache->nginx", "with \x01 bytes\n"};
  hit.signatures.push_back(sig);
  result.outcomes[2] = hit;
  CaseOutcome quarantined;
  quarantined.executed = true;
  quarantined.quarantined = true;
  result.outcomes[7] = quarantined;
  // Observability sections: a worker registry snapshot (counter, gauge,
  // histogram with full bucket detail) and a trace buffer with hostile
  // bytes in every string field.
  result.metrics.counters = {{"hdiff_campaign_cases_total", 12}};
  result.metrics.gauges = {{"hdiff_depth", -3}};
  obs::Registry::HistogramRow row;
  row.name = "hdiff_chain_observe_micros";
  row.count = 4;
  row.sum = 1234;
  row.bounds = {10, 100};
  row.buckets = {1, 2, 1};
  result.metrics.histograms.push_back(row);
  result.trace_pid = 4242;
  obs::TraceEvent span;
  span.ph = 'X';
  span.tid = 2;
  span.ts = 1000;
  span.dur = 50;
  span.name = "worker:execute_round";
  span.cat = "serve";
  span.arg_key = "shard";
  span.arg_value = "1/4 round 3\r\nwith ctl bytes";
  result.trace.push_back(span);
  obs::TraceEvent instant;
  instant.ph = 'i';
  instant.tid = 0;
  instant.ts = 2000;
  instant.dur = 0;
  instant.name = "note";
  instant.cat = "";
  result.trace.push_back(instant);
  return result;
}

TEST(ShardResult, RenderParseRoundTrip) {
  const ShardResult result = sample_result();
  ShardResult back;
  ASSERT_TRUE(campaign::parse_shard_result(
      campaign::render_shard_result(result), &back));
  EXPECT_EQ(back.round, result.round);
  EXPECT_EQ(back.shard, result.shard);
  EXPECT_EQ(back.shards, result.shards);
  EXPECT_EQ(back.config_sig, result.config_sig);
  EXPECT_EQ(back.faulted_attempts, result.faulted_attempts);
  EXPECT_EQ(back.retry_attempts, result.retry_attempts);
  EXPECT_EQ(back.recovered_cases, result.recovered_cases);
  EXPECT_EQ(back.quarantined_cases, result.quarantined_cases);
  ASSERT_EQ(back.outcomes.size(), result.outcomes.size());
  EXPECT_TRUE(back.outcomes.at(7).quarantined);
  ASSERT_EQ(back.outcomes.at(2).signatures.size(), 1u);
  EXPECT_EQ(back.outcomes.at(2).signatures[0].detector, "HRS");
  EXPECT_EQ(back.outcomes.at(2).signatures[0].vector,
            result.outcomes.at(2).signatures[0].vector);
  // Observability sections round-trip losslessly.
  EXPECT_EQ(back.metrics.counters, result.metrics.counters);
  EXPECT_EQ(back.metrics.gauges, result.metrics.gauges);
  ASSERT_EQ(back.metrics.histograms.size(), 1u);
  EXPECT_EQ(back.metrics.histograms[0].name, "hdiff_chain_observe_micros");
  EXPECT_EQ(back.metrics.histograms[0].count, 4u);
  EXPECT_EQ(back.metrics.histograms[0].sum, 1234u);
  EXPECT_EQ(back.metrics.histograms[0].bounds, result.metrics.histograms[0].bounds);
  EXPECT_EQ(back.metrics.histograms[0].buckets,
            result.metrics.histograms[0].buckets);
  EXPECT_EQ(back.trace_pid, 4242u);
  ASSERT_EQ(back.trace.size(), 2u);
  EXPECT_EQ(back.trace[0].ph, 'X');
  EXPECT_EQ(back.trace[0].tid, 2u);
  EXPECT_EQ(back.trace[0].ts, 1000u);
  EXPECT_EQ(back.trace[0].dur, 50u);
  EXPECT_EQ(back.trace[0].name, "worker:execute_round");
  EXPECT_EQ(back.trace[0].arg_value, result.trace[0].arg_value);
  EXPECT_EQ(back.trace[1].ph, 'i');
  EXPECT_TRUE(back.trace[1].cat.empty());

  // Extreme values, and parse then render is the identity on rendered text.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  ShardResult extreme = sample_result();
  extreme.round = std::numeric_limits<std::size_t>::max();
  extreme.faulted_attempts = std::numeric_limits<std::size_t>::max();
  extreme.metrics.counters.push_back({"", kMax});
  extreme.metrics.gauges.push_back(
      {"min", std::numeric_limits<std::int64_t>::min()});
  // A histogram with zero bounds keeps only its overflow bucket.
  obs::Registry::HistogramRow row;
  row.name = "hdiff_no_bounds";
  row.count = kMax;
  row.sum = kMax;
  row.buckets = {kMax};
  extreme.metrics.histograms.push_back(row);
  extreme.trace_pid = std::numeric_limits<std::uint32_t>::max();
  extreme.trace[0].ts = kMax;
  extreme.trace[0].dur = kMax;

  const std::string text = campaign::render_shard_result(extreme);
  ASSERT_TRUE(campaign::parse_shard_result(text, &back)) << text;
  EXPECT_EQ(back.round, extreme.round);
  EXPECT_EQ(back.faulted_attempts, extreme.faulted_attempts);
  EXPECT_EQ(back.metrics.counters, extreme.metrics.counters);
  EXPECT_EQ(back.metrics.gauges, extreme.metrics.gauges);
  ASSERT_EQ(back.metrics.histograms.size(), 2u);
  EXPECT_TRUE(back.metrics.histograms[1].bounds.empty());
  EXPECT_EQ(back.metrics.histograms[1].buckets, row.buckets);
  EXPECT_EQ(back.metrics.histograms[1].count, kMax);
  EXPECT_EQ(back.trace_pid, extreme.trace_pid);
  EXPECT_EQ(back.trace[0].ts, kMax);
  EXPECT_EQ(campaign::render_shard_result(back), text);
}

TEST(ShardResult, ObsSectionsAreOptionalAndOldFilesStillParse) {
  // A result with no metrics/trace (obs off, or written by an older
  // worker) renders without the m*/t* lines and parses to empty sections.
  ShardResult plain;
  plain.config_sig = "s";
  CaseOutcome done;
  done.executed = true;
  plain.outcomes[0] = done;
  const std::string rendered = campaign::render_shard_result(plain);
  EXPECT_EQ(rendered.find("mc="), std::string::npos);
  EXPECT_EQ(rendered.find("tev="), std::string::npos);
  ShardResult back;
  ASSERT_TRUE(campaign::parse_shard_result(rendered, &back));
  EXPECT_TRUE(back.metrics.counters.empty());
  EXPECT_TRUE(back.metrics.histograms.empty());
  EXPECT_TRUE(back.trace.empty());
  EXPECT_EQ(back.trace_pid, 0u);
}

TEST(ShardResult, EveryTruncationIsRejected) {
  // With and without the optional observability sections, and with no
  // cases at all (the end line right after the header block).
  ShardResult plain;
  plain.config_sig = "s";
  for (const ShardResult& result : {sample_result(), plain}) {
    const std::string full = campaign::render_shard_result(result);
    ShardResult out;
    ASSERT_TRUE(campaign::parse_shard_result(full, &out));
    // A durable rename makes torn *files* impossible, but a stray partial
    // write must still never parse: chop at every byte boundary, and never
    // let a chopped line pass for the end marker by re-terminating it.
    for (std::size_t len = 0; len < full.size(); ++len) {
      const std::string prefix = full.substr(0, len);
      EXPECT_FALSE(campaign::parse_shard_result(prefix, &out))
          << "prefix of " << len << " bytes parsed as a complete result";
      if (len + 1 < full.size() && full[len] != '\n') {
        EXPECT_FALSE(campaign::parse_shard_result(prefix + "\n", &out))
            << "re-terminated prefix of " << len << " bytes parsed";
      }
    }
  }
  ShardResult out;
  EXPECT_FALSE(campaign::parse_shard_result("", &out));
  EXPECT_FALSE(campaign::parse_shard_result("garbage\n", &out));
}

TEST(ShardResult, LoadValidatesPlanIdentity) {
  const std::string dir = fresh_dir("result-identity");
  const ShardResult result = sample_result();
  ASSERT_TRUE(campaign::write_shard_result(dir, result));

  ShardResult out;
  EXPECT_TRUE(campaign::load_shard_result(dir, 3, 1, 4, "sig-abc", &out));
  // Any mismatch in the plan identity header is a stale daemon generation.
  EXPECT_FALSE(campaign::load_shard_result(dir, 2, 1, 4, "sig-abc", &out));
  EXPECT_FALSE(campaign::load_shard_result(dir, 3, 1, 8, "sig-abc", &out));
  EXPECT_FALSE(campaign::load_shard_result(dir, 3, 1, 4, "sig-xyz", &out));
  // Missing file.
  EXPECT_FALSE(campaign::load_shard_result(dir, 3, 0, 4, "sig-abc", &out));
  fs::remove_all(dir);
}

TEST(ShardResult, MergeRejectsHoles) {
  ShardResult a;
  a.shards = 2;
  CaseOutcome done;
  done.executed = true;
  a.outcomes[0] = done;
  a.outcomes[2] = done;
  ShardResult b;
  b.shard = 1;
  b.shards = 2;
  b.outcomes[1] = done;

  std::vector<CaseOutcome> merged;
  std::size_t missing = 0;
  EXPECT_TRUE(campaign::merge_shard_outcomes({a, b}, 3, &merged, &missing));
  ASSERT_EQ(merged.size(), 3u);
  for (const CaseOutcome& outcome : merged) EXPECT_TRUE(outcome.executed);

  // Planned index 3 executed by no shard: the merge must name the hole
  // instead of letting integrate_round see an unexecuted outcome.
  EXPECT_FALSE(campaign::merge_shard_outcomes({a, b}, 4, &merged, &missing));
  EXPECT_EQ(missing, 3u);
}

// ---- control-plane HTTP pump ----------------------------------------------

/// Pumps `loop` on this thread while `client` runs a blocking roundtrip.
std::string pump_roundtrip(net::ServeLoop& loop, std::uint16_t port,
                           const std::string& request) {
  net::TcpResult result;
  std::atomic<bool> done{false};
  std::thread client([&] {
    result = net::tcp_roundtrip(port, request, 2000);
    done.store(true);
  });
  while (!done.load()) loop.poll_once(5);
  client.join();
  return result.bytes;
}

TEST(ServeLoop, DispatchesRequestToHandler) {
  net::TcpListener listener;
  net::ServeLoop loop(listener, [](const net::ControlRequest& request) {
    net::ControlResponse response;
    response.body = request.method + " " + request.target;
    return response;
  });
  const std::string reply = pump_roundtrip(
      loop, listener.port(),
      "GET /healthz HTTP/1.1\r\nHost: c\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos) << reply;
  EXPECT_NE(reply.find("Connection: close"), std::string::npos);
  EXPECT_NE(reply.find("GET /healthz"), std::string::npos);
  EXPECT_EQ(loop.requests_handled(), 1u);
  EXPECT_EQ(loop.requests_rejected(), 0u);
}

TEST(ServeLoop, DeliversPostBodyByContentLength) {
  net::TcpListener listener;
  net::ServeLoop loop(listener, [](const net::ControlRequest& request) {
    net::ControlResponse response;
    response.status = 202;
    response.body = "got:" + request.body;
    return response;
  });
  const std::string reply = pump_roundtrip(
      loop, listener.port(),
      "POST /campaigns/default/stop HTTP/1.1\r\nContent-Length: 5\r\n\r\n"
      "drain");
  EXPECT_NE(reply.find("HTTP/1.1 202 Accepted"), std::string::npos) << reply;
  EXPECT_NE(reply.find("got:drain"), std::string::npos);
}

TEST(ServeLoop, MalformedRequestIs400NotACrash) {
  net::TcpListener listener;
  net::ServeLoop loop(listener, [](const net::ControlRequest&) {
    return net::ControlResponse{};
  });
  const std::string reply =
      pump_roundtrip(loop, listener.port(), "garbage\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 400 Bad Request"), std::string::npos)
      << reply;
  EXPECT_EQ(loop.requests_handled(), 0u);
  EXPECT_EQ(loop.requests_rejected(), 1u);
}

TEST(ServeLoop, ContentLengthIsOneStrictDecimalWithinTheLimit) {
  struct Row {
    std::string headers;  ///< header lines after the request line
    std::string body;
    std::string status;   ///< expected status line prefix
  };
  const std::vector<Row> rows = {
      {"Content-Length: 0\r\n", "", "HTTP/1.1 200"},
      {"Content-Length: 5\r\n", "drain", "HTTP/1.1 200"},
      {"Content-Length: -1\r\n", "", "HTTP/1.1 400"},
      {"Content-Length: +0\r\n", "", "HTTP/1.1 400"},
      {"Content-Length: 00\r\n", "", "HTTP/1.1 400"},
      {"Content-Length: 0x10\r\n", "", "HTTP/1.1 400"},
      {"Content-Length: 1 2\r\n", "", "HTTP/1.1 400"},
      {"Content-Length:\r\n", "", "HTTP/1.1 400"},
      {"Content-Length: 18446744073709551616\r\n", "", "HTTP/1.1 400"},
      {"Content-Length: 0\r\nContent-Length: 0\r\n", "", "HTTP/1.1 400"},
      {"Content-Length: 0\r\n 0\r\n", "", "HTTP/1.1 400"},
      {"Content-Length: 18446744073709551615\r\n", "", "HTTP/1.1 413"},
      {"Content-Length: 1000\r\n", "", "HTTP/1.1 413"},
  };
  net::TcpListener listener;
  net::ServeLoopConfig config;
  config.max_request_bytes = 512;
  net::ServeLoop loop(
      listener,
      [](const net::ControlRequest&) { return net::ControlResponse{}; },
      config);
  std::size_t rejected = 0;
  for (const Row& row : rows) {
    const std::string reply = pump_roundtrip(
        loop, listener.port(),
        "GET /healthz HTTP/1.1\r\n" + row.headers + "\r\n" + row.body);
    EXPECT_EQ(reply.rfind(row.status, 0), 0u) << row.headers << reply;
    if (row.status != "HTTP/1.1 200") ++rejected;
  }
  EXPECT_EQ(loop.requests_handled(), rows.size() - rejected);
  EXPECT_EQ(loop.requests_rejected(), rejected);
}

TEST(ServeLoop, OversizedRequestIs413) {
  net::TcpListener listener;
  net::ServeLoopConfig config;
  config.max_request_bytes = 128;
  net::ServeLoop loop(
      listener,
      [](const net::ControlRequest&) { return net::ControlResponse{}; },
      config);
  const std::string reply = pump_roundtrip(
      loop, listener.port(),
      "GET /" + std::string(256, 'a') + " HTTP/1.1\r\n\r\n");
  EXPECT_NE(reply.find("413"), std::string::npos) << reply;
  EXPECT_EQ(loop.requests_rejected(), 1u);
}

TEST(ServeLoop, HandlerExceptionIs500) {
  net::TcpListener listener;
  net::ServeLoop loop(listener, [](const net::ControlRequest&)
                                    -> net::ControlResponse {
    throw std::runtime_error("handler bug");
  });
  const std::string reply = pump_roundtrip(
      loop, listener.port(), "GET /boom HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 500"), std::string::npos) << reply;
}

TEST(ControlClient, ReadsExactlyAThreeDigitStatus) {
  struct Row {
    const char* what;
    std::string reply;
    int status;
    std::string body;
  };
  const std::vector<Row> rows = {
      {"good reply", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", 200,
       "ok"},
      {"garbled status", "HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\nok", 0,
       ""},
      {"signed status", "HTTP/1.1 -20 OK\r\n\r\nok", 0, ""},
      {"zero-padded status", "HTTP/1.1 020 OK\r\n\r\nok", 0, ""},
      {"four-digit status", "HTTP/1.1 2000 OK\r\n\r\nok", 0, ""},
      {"short reply", "HTTP/1.1 20", 0, ""},
      {"no reply", "", 0, ""},
      {"empty body", "HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n",
       202, ""},
  };
  for (const Row& row : rows) {
    const net::ControlProbe probe = net::parse_control_reply(row.reply);
    EXPECT_EQ(probe.status, row.status) << row.what;
    EXPECT_EQ(probe.body, row.body) << row.what;
  }
}

// ---- supervisor -----------------------------------------------------------

campaign::CampaignConfig small_campaign(const std::string& dir) {
  campaign::CampaignConfig config;
  config.state_dir = dir;
  config.rounds = 1;
  config.budget_per_round = 8;
  config.executor.jobs = 1;
  config.bootstrap = core::verification_probes();
  return config;
}

TEST(Supervisor, InProcessShardsMatchSingleProcessEngineByteForByte) {
  const auto fleet = impls::make_all_implementations();

  const std::string ref_dir = fresh_dir("sup-ref");
  campaign::CampaignEngine engine(small_campaign(ref_dir));
  const campaign::CampaignReport ref = engine.run(fleet);
  ASSERT_TRUE(ref.error.empty()) << ref.error;

  const std::string serve_dir = fresh_dir("sup-serve");
  ServeConfig config;
  config.campaign = small_campaign(serve_dir);
  config.shards = 3;
  // Empty worker binary = every shard executes inline in the supervisor —
  // the pure merge/integrate path with no process management noise.
  config.worker_binary.clear();
  Supervisor supervisor(config, fleet);
  EXPECT_GT(supervisor.port(), 0);
  const ServeReport report = supervisor.run();
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.rounds_run, 2u);  // bootstrap + 1 mutation round
  EXPECT_FALSE(report.drained);

  const campaign::StateStore ref_store(ref_dir), serve_store(serve_dir);
  EXPECT_EQ(slurp(ref_store.state_path()), slurp(serve_store.state_path()));
  EXPECT_EQ(slurp(ref_store.log_path()), slurp(serve_store.log_path()));
  EXPECT_EQ(slurp(ref_store.findings_path()),
            slurp(serve_store.findings_path()));
  fs::remove_all(ref_dir);
  fs::remove_all(serve_dir);
}

TEST(Supervisor, CrashOnlyWorkerIsQuarantinedAndTheRoundStillCompletes) {
  const auto fleet = impls::make_all_implementations();

  const std::string ref_dir = fresh_dir("quar-ref");
  campaign::CampaignEngine engine(small_campaign(ref_dir));
  ASSERT_TRUE(engine.run(fleet).error.empty());

  const std::string serve_dir = fresh_dir("quar-serve");
  ServeConfig config;
  config.campaign = small_campaign(serve_dir);
  config.shards = 2;
  // Forked workers, each SIGKILLed the moment it is spawned, twice per
  // shard: every spawn is a death, every shard ends up quarantined, and the
  // supervisor must finish the round inline anyway.
  config.worker_binary = "fork";
  config.heartbeat_interval_ms = 40;
  config.quarantine_after = 2;
  for (std::size_t shard : {0u, 1u, 0u, 1u}) {
    config.chaos.push_back(ChaosAction{.round = 0, .shard = shard,
                                       .kind = ChaosAction::Kind::kKill,
                                       .delay_ms = 0});
  }
  Supervisor supervisor(config, fleet);
  const ServeReport report = supervisor.run();
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_GE(report.worker_deaths, 2u);
  EXPECT_GE(report.quarantined_shards, 1u);
  EXPECT_GE(report.worker_restarts, 1u);

  const campaign::StateStore ref_store(ref_dir), serve_store(serve_dir);
  EXPECT_EQ(slurp(ref_store.state_path()), slurp(serve_store.state_path()));
  EXPECT_EQ(slurp(ref_store.log_path()), slurp(serve_store.log_path()));
  EXPECT_EQ(slurp(ref_store.findings_path()),
            slurp(serve_store.findings_path()));
  fs::remove_all(ref_dir);
  fs::remove_all(serve_dir);
}

TEST(Supervisor, WorkersInheritOnlyStdioAndTheHeartbeatFd) {
  // What a supervisor holds when it forks: its control listener, an extra
  // socket below it (so the dup2 onto fd 3 cannot hide a leaked listener by
  // overwriting it) and the flight log.
  net::TcpListener low_fd;
  net::TcpListener listener;
  const std::string dir = fresh_dir("fds");
  fs::create_directories(dir);
  FlightRecorder flight(dir);
  flight.record("start", 0);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  // The child keeps the worker's fds, then sends back its fds above stdio
  // (stdio is whatever the test runner passed, a socket included) and
  // whether fd 3 is nonblocking, over that very heartbeat pipe.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    keep_worker_fds(fds[1]);
    std::string listing =
        (::fcntl(3, F_GETFL) & O_NONBLOCK) != 0 ? "nonblocking\n" : "";
    std::error_code ec;
    for (const auto& fd : fs::directory_iterator("/proc/self/fd", ec)) {
      const std::string name = fd.path().filename().string();
      if (name == "0" || name == "1" || name == "2") continue;
      listing += name + " -> " + fs::read_symlink(fd.path(), ec).string() +
                 "\n";
    }
    for (std::size_t off = 0; off < listing.size();) {
      const ssize_t n = ::write(3, listing.data() + off, listing.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  // The pipe's read end is nonblocking in the supervisor, not here.
  std::string fds_seen;
  char buf[512];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) {
    fds_seen.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  EXPECT_NE(fds_seen.find("nonblocking\n"), std::string::npos) << fds_seen;
  EXPECT_NE(fds_seen.find("\n3 -> pipe:"), std::string::npos) << fds_seen;
  EXPECT_EQ(fds_seen.find("socket:"), std::string::npos) << fds_seen;
  EXPECT_EQ(fds_seen.find("flight.events"), std::string::npos) << fds_seen;
  // Nothing else either: fd 3 and the listing's own directory fd.
  EXPECT_EQ(std::count(fds_seen.begin(), fds_seen.end(), '\n'), 3) << fds_seen;
  fs::remove_all(dir);
}

TEST(Supervisor, LeftoverShardResultIsReusedNotReexecuted) {
  const auto fleet = impls::make_all_implementations();
  const std::string dir = fresh_dir("leftover");

  // Build a committed round-0 checkpoint, then plan round 1 and pre-write
  // every shard's result — simulating a supervisor killed after all workers
  // published but before the merge committed.
  {
    ServeConfig config;
    config.campaign = small_campaign(dir);
    config.campaign.rounds = 0;  // commit only the bootstrap round
    Supervisor supervisor(config, fleet);
    ASSERT_TRUE(supervisor.run().error.empty());
  }
  campaign::CampaignConfig campaign_config = small_campaign(dir);
  const std::string sig = campaign::campaign_config_sig(campaign_config);
  {
    campaign::StateStore store(dir);
    ASSERT_TRUE(store.load_readonly());
    ASSERT_EQ(store.rounds_completed, 1u);
    campaign::RoundPlan plan =
        campaign::plan_round(store, campaign_config, 1);
    net::Chain chain = net::Chain::from_fleet(fleet);
    core::ObservationMemo memo;
    net::VerdictCache verdicts;
    for (std::size_t k = 0; k < 2; ++k) {
      const std::vector<std::size_t> mine =
          campaign::shard_indices(plan.cases, k, 2);
      campaign::ExecutedRound executed = campaign::execute_round(
          campaign_config, chain, plan.cases, &memo, &verdicts, &mine);
      ShardResult result;
      result.round = 1;
      result.shard = k;
      result.shards = 2;
      result.config_sig = sig;
      for (std::size_t idx : mine) result.outcomes[idx] = executed.outcomes[idx];
      ASSERT_TRUE(campaign::write_shard_result(dir, result));
    }
  }

  ServeConfig config;
  config.campaign = small_campaign(dir);
  config.shards = 2;
  // No worker binary and no quarantine tolerance needed: if the leftover
  // results are adopted, zero shard executions happen at all.
  Supervisor supervisor(config, fleet);
  const ServeReport report = supervisor.run();
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.reused_shard_results, 2u);

  // Same bytes as an uninterrupted single-process run.
  const std::string ref_dir = fresh_dir("leftover-ref");
  campaign::CampaignEngine engine(small_campaign(ref_dir));
  ASSERT_TRUE(engine.run(fleet).error.empty());
  const campaign::StateStore ref_store(ref_dir), got_store(dir);
  EXPECT_EQ(slurp(ref_store.state_path()), slurp(got_store.state_path()));
  EXPECT_EQ(slurp(ref_store.log_path()), slurp(got_store.log_path()));
  EXPECT_EQ(slurp(ref_store.findings_path()), slurp(got_store.findings_path()));
  fs::remove_all(dir);
  fs::remove_all(ref_dir);
}

// ---- cross-process observability ------------------------------------------

/// Run `campaign` on an in-process supervisor with `shards` shards,
/// absorbing every shard's scratch registry into `fleet_metrics`.
ServeReport run_observed(campaign::CampaignConfig campaign, std::size_t shards,
                         obs::Registry* registry, FleetMetrics* fleet_metrics,
                         obs::TraceSink* sink,
                         const std::vector<std::unique_ptr<
                             impls::HttpImplementation>>& fleet) {
  ServeConfig config;
  config.campaign = std::move(campaign);
  config.shards = shards;
  config.obs.metrics = registry;
  config.obs.trace = sink;
  config.campaign.obs.metrics = registry;
  config.fleet = fleet_metrics;
  Supervisor supervisor(config, fleet);
  return supervisor.run();
}

std::uint64_t counter_of(const obs::Registry& registry,
                         const std::string& name) {
  for (const auto& [n, v] : registry.snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

std::uint64_t hist_count_of(const obs::Registry& registry,
                            const std::string& name) {
  for (const auto& row : registry.snapshot().histograms) {
    if (row.name == name) return row.count;
  }
  return 0;
}

TEST(Supervisor, MergedMetricTotalsAreShardCountInvariant) {
  const auto fleet = impls::make_all_implementations();

  // Shard-scoped memo/verdict caches mean every shard observes each of its
  // cases exactly once, and duplicate raws hash to one shard at any shard
  // count — so the merged chain-observation count must not depend on the
  // split, and campaign counters (emitted supervisor-side from the same
  // byte-identical integration) must match exactly.
  const std::string dir_a = fresh_dir("obs-1shard");
  obs::Registry reg_a;
  FleetMetrics fleet_a(&reg_a);
  obs::TraceSink sink_a;
  ASSERT_TRUE(run_observed(small_campaign(dir_a), 1, &reg_a, &fleet_a,
                           &sink_a, fleet)
                  .error.empty());

  const std::string dir_b = fresh_dir("obs-3shard");
  obs::Registry reg_b;
  FleetMetrics fleet_b(&reg_b);
  obs::TraceSink sink_b;
  ASSERT_TRUE(run_observed(small_campaign(dir_b), 3, &reg_b, &fleet_b,
                           &sink_b, fleet)
                  .error.empty());

  const std::uint64_t observed_a =
      hist_count_of(reg_a, "hdiff_chain_observe_micros");
  EXPECT_GT(observed_a, 0u);
  EXPECT_EQ(observed_a, hist_count_of(reg_b, "hdiff_chain_observe_micros"));
  for (const char* name :
       {"hdiff_campaign_rounds_total", "hdiff_campaign_cases_total",
        "hdiff_campaign_novel_total", "hdiff_campaign_duplicate_total"}) {
    EXPECT_EQ(counter_of(reg_a, name), counter_of(reg_b, name)) << name;
  }

  // The merged exposition carries the per-origin breakdown, and the
  // stitched trace has one labeled track per inline "worker" plus the
  // supervisor's own.
  const std::string exposition = fleet_b.render();
  EXPECT_NE(exposition.find("process=\"worker\",shard=\"all\""),
            std::string::npos);
  EXPECT_NE(exposition.find("process=\"worker\",shard=\"2\""),
            std::string::npos);
  const std::string trace = sink_b.render_chrome_json();
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("worker shard"), std::string::npos);

  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

TEST(Supervisor, EventsQueryRejectsAMalformedSince) {
  // `since` is external input: anything but a decimal seq is a 400, not a
  // silent since=0.
  const auto fleet = impls::make_all_implementations();
  const std::string dir = fresh_dir("events-since");
  ServeConfig config;
  config.campaign = small_campaign(dir);
  config.campaign.rounds = 1000;  // runs until stopped below
  config.shards = 1;
  Supervisor supervisor(config, fleet);
  const std::uint16_t port = supervisor.port();
  std::thread runner([&] { supervisor.run(); });
  const auto status_of = [&](const char* method, const std::string& target) {
    // The control plane is pumped between rounds; wait it out.
    return net::control_get(port, method, target, 10000).status;
  };
  EXPECT_EQ(status_of("GET", "/events?since=abc"), 400);
  EXPECT_EQ(status_of("GET", "/events?since=-1"), 400);
  EXPECT_EQ(status_of("GET", "/events?since=18446744073709551616"), 400);
  EXPECT_EQ(status_of("GET", "/events?since="), 400);
  EXPECT_EQ(status_of("GET", "/events?since=0"), 200);
  EXPECT_EQ(status_of("GET", "/events"), 200);
  EXPECT_EQ(status_of("POST", "/campaigns/default/stop"), 202);
  runner.join();
  fs::remove_all(dir);
}

TEST(Supervisor, FlightRecorderPersistsTheRunLifecycle) {
  const auto fleet = impls::make_all_implementations();
  const std::string dir = fresh_dir("flight-lifecycle");
  {
    ServeConfig config;
    config.campaign = small_campaign(dir);
    config.shards = 2;
    Supervisor supervisor(config, fleet);
    ASSERT_TRUE(supervisor.run().error.empty());
  }
  FlightRecorder recorder(dir);
  recorder.load();
  const std::vector<FlightEvent> events = recorder.events_since(0);
  ASSERT_FALSE(events.empty());
  std::uint64_t prev = 0;
  bool saw_start = false, saw_commit = false;
  for (const FlightEvent& event : events) {
    EXPECT_GT(event.seq, prev);
    prev = event.seq;
    if (event.kind == "start") saw_start = true;
    if (event.kind == "round_commit") saw_commit = true;
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_commit);
  fs::remove_all(dir);
}


// ---- forked workers ---------------------------------------------------------
//
// The supervisor forks its workers from this test process, so these proofs
// cover the worker's whole life: fd hygiene, timer heartbeats and durable
// results.

/// The campaign the forked-worker proofs run, coverage on.
campaign::CampaignConfig forked_campaign(const std::string& dir,
                                         std::size_t rounds) {
  campaign::CampaignConfig config;
  config.state_dir = dir;
  config.rounds = rounds;
  config.budget_per_round = 24;
  config.executor.jobs = 1;
  config.bootstrap = core::verification_probes();
  config.coverage = campaign::coverage_fixture();
  return config;
}

ServeConfig forked_serve(const std::string& dir, std::size_t rounds,
                         std::size_t shards) {
  ServeConfig config;
  config.campaign = forked_campaign(dir, rounds);
  config.shards = shards;
  config.worker_binary = "fork";  // any non-empty name forks workers
  config.heartbeat_interval_ms = 60;
  return config;
}

void expect_same_state(const std::string& ref_dir, const std::string& dir) {
  const campaign::StateStore ref(ref_dir), got(dir);
  EXPECT_TRUE(slurp(ref.state_path()) == slurp(got.state_path()))
      << "campaign.state differs";
  EXPECT_TRUE(slurp(ref.findings_path()) == slurp(got.findings_path()))
      << "findings.jsonl differs";
  const std::string log = slurp(ref.log_path());
  EXPECT_FALSE(log.empty());
  EXPECT_TRUE(log == slurp(got.log_path())) << "campaign.log differs";
}

/// The kinds of the flight events persisted in `dir`; their seqs must
/// strictly increase.
std::set<std::string> flight_kinds(const std::string& dir) {
  FlightRecorder flight(dir);
  flight.load();
  std::set<std::string> kinds;
  std::uint64_t prev = 0;
  for (const FlightEvent& event : flight.events_since(0)) {
    EXPECT_GT(event.seq, prev) << event.kind;
    prev = event.seq;
    kinds.insert(event.kind);
  }
  return kinds;
}

TEST(ForkedWorkers, ChaosLeavesTheSingleProcessBytes) {
  const auto fleet = impls::make_all_implementations();
  const std::string ref_dir = fresh_dir("chaos-ref");
  const campaign::CampaignReport ref =
      campaign::CampaignEngine(forked_campaign(ref_dir, 2)).run(fleet);
  ASSERT_TRUE(ref.error.empty()) << ref.error;

  // Four forked shards: two workers SIGKILLed in round 1, one SIGSTOPped in
  // round 2 (a hang: heartbeat timeout, SIGKILL, respawn).  Observability
  // is on here and off in the reference, so equal bytes also show that it
  // does not perturb findings.
  const std::string dir = fresh_dir("chaos");
  ServeConfig config = forked_serve(dir, 2, 4);
  config.quarantine_after = 10;  // keep respawning; never run a shard inline
  obs::Registry registry;
  FleetMetrics fleet_metrics(&registry);
  obs::TraceSink sink;
  sink.set_process_name("supervisor");
  config.obs.metrics = &registry;
  config.obs.trace = &sink;
  config.campaign.obs.metrics = &registry;
  config.fleet = &fleet_metrics;
  using Chaos = ChaosAction;
  config.chaos = {
      Chaos{.round = 1, .shard = 0, .kind = Chaos::Kind::kKill, .delay_ms = 0},
      Chaos{.round = 1, .shard = 2, .kind = Chaos::Kind::kKill, .delay_ms = 0},
      Chaos{.round = 2, .shard = 1, .kind = Chaos::Kind::kStop, .delay_ms = 0},
  };
  const ServeReport report = Supervisor(config, fleet).run();
  ASSERT_TRUE(report.error.empty()) << report.error;
  // The chaos engaged.
  EXPECT_GE(report.worker_deaths, 3u);
  EXPECT_GE(report.worker_hangs, 1u);
  EXPECT_GE(report.worker_restarts, 3u);
  expect_same_state(ref_dir, dir);

  // Worker observations travel only inside adopted shard results, so the
  // partial counts of killed workers are dropped and the merged totals
  // equal a run with every shard inline in the supervisor.
  const std::string inline_dir = fresh_dir("chaos-inline");
  obs::Registry inline_registry;
  FleetMetrics inline_fleet(&inline_registry);
  ASSERT_TRUE(run_observed(forked_campaign(inline_dir, 2), 4, &inline_registry,
                           &inline_fleet, nullptr, fleet)
                  .error.empty());
  EXPECT_GT(counter_of(registry, "hdiff_campaign_cases_total"), 0u);
  for (const char* name :
       {"hdiff_campaign_rounds_total", "hdiff_campaign_cases_total",
        "hdiff_campaign_novel_total", "hdiff_campaign_duplicate_total"}) {
    EXPECT_EQ(counter_of(registry, name), counter_of(inline_registry, name))
        << name;
  }
  const std::uint64_t observed =
      hist_count_of(registry, "hdiff_chain_observe_micros");
  EXPECT_GT(observed, 0u);
  EXPECT_EQ(observed,
            hist_count_of(inline_registry, "hdiff_chain_observe_micros"));
  const std::string exposition = fleet_metrics.render();
  EXPECT_NE(exposition.find("process=\"worker\",shard=\"all\""),
            std::string::npos);
  EXPECT_NE(exposition.find("hdiff_chain_observe_micros_count"),
            std::string::npos);

  // The stitched trace has the supervisor's track and the workers'.
  const std::string trace = sink.render_chrome_json();
  std::size_t tracks = 0;
  for (std::size_t at = 0;
       (at = trace.find("\"process_name\"", at)) != std::string::npos; ++at) {
    ++tracks;
  }
  EXPECT_GE(tracks, 2u);
  EXPECT_NE(trace.find("supervisor"), std::string::npos);
  EXPECT_NE(trace.find("worker shard"), std::string::npos);

  // The flight recorder replays the whole chaos lifecycle.
  const std::set<std::string> kinds = flight_kinds(dir);
  for (const char* kind : {"start", "spawn", "worker_death", "hang_kill",
                           "restart", "round_commit"}) {
    EXPECT_TRUE(kinds.contains(kind)) << kind;
  }
  fs::remove_all(ref_dir);
  fs::remove_all(dir);
  fs::remove_all(inline_dir);
}

TEST(ForkedWorkers, StopThenResumeLeavesTheUninterruptedBytes) {
  const auto fleet = impls::make_all_implementations();
  const std::string ref_dir = fresh_dir("drain-ref");
  const campaign::CampaignReport ref =
      campaign::CampaignEngine(forked_campaign(ref_dir, 4)).run(fleet);
  ASSERT_TRUE(ref.error.empty()) << ref.error;

  const std::string dir = fresh_dir("drain");
  ServeConfig config = forked_serve(dir, 4, 2);
  obs::Registry registry;
  FleetMetrics fleet_metrics(&registry);
  config.obs.metrics = &registry;
  config.campaign.obs.metrics = &registry;
  config.fleet = &fleet_metrics;
  std::atomic<bool> run_done{false};
  std::atomic<bool> stop_posted{false};
  std::atomic<bool> health_ok{false};
  // Written by the stopper, read only after it joins.
  std::string live_status, live_events;
  ServeReport drained;
  {
    Supervisor supervisor(config, fleet);
    const std::uint16_t port = supervisor.port();
    // Once a round is committed, read /status and /events, then POST stop.
    std::thread stopper([&] {
      while (!run_done.load()) {
        if (net::control_get(port, "GET", "/healthz").status == 200) {
          health_ok.store(true);
        }
        const net::ControlProbe status =
            net::control_get(port, "GET", "/status");
        if (status.status == 200 && !status.body.empty() &&
            status.body.find("\"rounds_completed\":0") == std::string::npos) {
          live_status = status.body;
          const net::ControlProbe events =
              net::control_get(port, "GET", "/events?since=0");
          if (events.status == 200) live_events = events.body;
          if (net::control_get(port, "POST", "/campaigns/default/stop")
                  .status == 202) {
            stop_posted.store(true);
            return;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    drained = supervisor.run();
    run_done.store(true);
    stopper.join();
  }
  ASSERT_TRUE(drained.error.empty()) << drained.error;
  ASSERT_TRUE(stop_posted.load() && drained.drained)
      << "the campaign finished before the stop landed";
  EXPECT_TRUE(health_ok.load()) << "/healthz never answered 200";
  EXPECT_NE(live_events.find("\"next_seq\":"), std::string::npos)
      << live_events;
  EXPECT_NE(live_events.find("\"kind\":\"spawn\""), std::string::npos)
      << live_events;
  EXPECT_NE(live_status.find("\"last_heartbeat_ms\":"), std::string::npos)
      << live_status;

  const ServeReport resumed = Supervisor(config, fleet).run();
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  expect_same_state(ref_dir, dir);

  // Flight seqs continue across the two supervisor lives, and the file
  // replays both.
  const std::set<std::string> kinds = flight_kinds(dir);
  for (const char* kind :
       {"start", "stop", "drain", "resume", "round_commit"}) {
    EXPECT_TRUE(kinds.contains(kind)) << kind;
  }
  // Every probe the stopper sent was counted per (target, status).
  EXPECT_NE(fleet_metrics.render().find(
                "hdiff_serve_control_requests_total{target=\"/status\","
                "status=\"200\"}"),
            std::string::npos);
  fs::remove_all(ref_dir);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hdiff::serve
