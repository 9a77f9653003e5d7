// Live loopback-TCP chain integration tests, including the structured
// ChainError classification of every harness-fault path.
#include "net/tcp.h"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "impls/products.h"
#include "net/fault.h"

namespace hdiff::net {
namespace {

TEST(Tcp, ListenerBindsEphemeralPort) {
  TcpListener listener;
  EXPECT_GT(listener.port(), 0);
  TcpListener other;
  EXPECT_NE(listener.port(), other.port());
}

TEST(Tcp, ConnectFailureIsClassifiedNotEmpty) {
  // Port 1 on loopback is almost certainly closed: the failure must surface
  // as kConnectFail, not masquerade as an empty response.
  TcpResult result = tcp_roundtrip(1, "GET / HTTP/1.1\r\n\r\n", 100);
  EXPECT_EQ(result.error, ChainError::kConnectFail);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.bytes.empty());
}

TEST(Tcp, ModelServerAnswersOverSocket) {
  auto apache = impls::make_implementation("apache");
  ModelServer server(*apache);
  TcpResult result = tcp_roundtrip(
      server.port(), "GET /x HTTP/1.1\r\nHost: h1.com\r\n\r\n");
  ASSERT_TRUE(result.ok()) << to_string(result.error);
  EXPECT_NE(result.bytes.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(result.bytes.find("X-HDiff-Impl: apache"), std::string::npos);
  EXPECT_NE(result.bytes.find("X-HDiff-Host: h1.com"), std::string::npos);
}

TEST(Tcp, ModelServerRejectsOverSocket) {
  auto apache = impls::make_implementation("apache");
  ModelServer server(*apache);
  TcpResult result =
      tcp_roundtrip(server.port(), "GET / HTTP/1.1\r\n\r\n");  // no Host
  ASSERT_TRUE(result.ok()) << to_string(result.error);
  EXPECT_NE(result.bytes.find("HTTP/1.1 400"), std::string::npos);
}

TEST(Tcp, ModelServerHandlesSequentialConnections) {
  auto tomcat = impls::make_implementation("tomcat");
  ModelServer server(*tomcat);
  for (int i = 0; i < 3; ++i) {
    TcpResult result = tcp_roundtrip(
        server.port(), "GET / HTTP/1.1\r\nHost: h1.com\r\n\r\n");
    ASSERT_TRUE(result.ok()) << i;
    EXPECT_NE(result.bytes.find("HTTP/1.1 200"), std::string::npos) << i;
  }
}

TEST(Tcp, LiveChainCleanRequest) {
  auto apache = impls::make_implementation("apache");
  auto squid = impls::make_implementation("squid");
  ModelServer origin(*apache);
  ModelProxy proxy(*squid, origin.port());
  TcpResult result = tcp_roundtrip(
      proxy.port(), "GET /p HTTP/1.1\r\nHost: h1.com\r\n\r\n");
  ASSERT_TRUE(result.ok()) << to_string(result.error);
  EXPECT_NE(result.bytes.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(result.bytes.find("X-HDiff-Impl: apache"), std::string::npos);
}

TEST(Tcp, LiveChainProxyRejectsLocally) {
  auto apache = impls::make_implementation("apache");
  auto squid = impls::make_implementation("squid");
  ModelServer origin(*apache);
  ModelProxy proxy(*squid, origin.port());
  TcpResult result = tcp_roundtrip(
      proxy.port(), "POST / HTTP/1.1\r\nHost: h\r\nContent-Length : 5\r\n"
                    "\r\nAAAAA");
  ASSERT_TRUE(result.ok()) << to_string(result.error);
  EXPECT_NE(result.bytes.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(result.bytes.find("X-HDiff-Impl: squid"), std::string::npos);
}

TEST(Tcp, LiveChainCpdosRepairBug) {
  // The nginx repair bug over real sockets: the proxy forwards the mangled
  // request line and the origin answers a cacheable 400.
  auto apache = impls::make_implementation("apache");
  auto nginx = impls::make_implementation("nginx");
  ModelServer origin(*apache);
  ModelProxy proxy(*nginx, origin.port());
  TcpResult result = tcp_roundtrip(
      proxy.port(), "GET /?a=b 1.1/HTTP\r\nHost: h1.com\r\n\r\n");
  ASSERT_TRUE(result.ok()) << to_string(result.error);
  EXPECT_NE(result.bytes.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(result.bytes.find("X-HDiff-Impl: apache"), std::string::npos);
}

TEST(Tcp, LiveChainSmuggledRemainderVisible) {
  // ats -> tomcat \x0b-TE smuggle over real sockets: the origin's
  // X-HDiff-Leftover header exposes the smuggled byte count.
  auto tomcat = impls::make_implementation("tomcat");
  auto ats = impls::make_implementation("ats");
  ModelServer origin(*tomcat);
  ModelProxy proxy(*ats, origin.port());
  std::string body = "0\r\n\r\nGET /evil HTTP/1.1\r\nHost: h\r\n\r\n";
  std::string request =
      "POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: \x0b" "chunked\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  TcpResult result = tcp_roundtrip(proxy.port(), request);
  ASSERT_TRUE(result.ok()) << to_string(result.error);
  EXPECT_NE(result.bytes.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(result.bytes.find("X-HDiff-Leftover: 31"), std::string::npos);
}

// ---- ChainError classification of the fault paths -------------------------

TEST(Tcp, SilentPeerClassifiedAsTimeout) {
  // Idle-timeout truncation with zero bytes: the peer accepts and never
  // answers.
  TcpListener listener;
  std::atomic<bool> done{false};
  std::thread holder([&] {
    int conn = listener.accept_connection();
    while (!done) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (conn >= 0) ::close(conn);
  });
  TcpResult result =
      tcp_roundtrip(listener.port(), "GET / HTTP/1.1\r\nHost: h\r\n\r\n", 100);
  EXPECT_EQ(result.error, ChainError::kTimeout);
  EXPECT_TRUE(result.bytes.empty());
  done = true;
  holder.join();
}

TEST(Tcp, StalledMidResponseClassifiedAsTimeout) {
  // Idle-timeout truncation with a partial response on the wire.
  TcpListener listener;
  std::atomic<bool> done{false};
  std::thread server([&] {
    int conn = listener.accept_connection();
    if (conn < 0) return;
    char buf[1024];
    (void)::recv(conn, buf, sizeof buf, 0);
    const char kPartial[] =
        "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
    (void)::send(conn, kPartial, sizeof kPartial - 1, MSG_NOSIGNAL);
    while (!done) {  // stall: never send the remaining 7 body bytes
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::close(conn);
  });
  TcpResult result =
      tcp_roundtrip(listener.port(), "GET / HTTP/1.1\r\nHost: h\r\n\r\n", 100);
  EXPECT_EQ(result.error, ChainError::kTimeout);
  EXPECT_NE(result.bytes.find("abc"), std::string::npos);
  done = true;
  server.join();
}

TEST(Tcp, PeerCloseMidBodyClassifiedAsTruncated) {
  TcpListener listener;
  std::thread server([&] {
    int conn = listener.accept_connection();
    if (conn < 0) return;
    char buf[1024];
    (void)::recv(conn, buf, sizeof buf, 0);
    const char kPartial[] =
        "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
    (void)::send(conn, kPartial, sizeof kPartial - 1, MSG_NOSIGNAL);
    ::shutdown(conn, SHUT_WR);  // orderly close with 7 body bytes missing
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::close(conn);
  });
  TcpResult result =
      tcp_roundtrip(listener.port(), "GET / HTTP/1.1\r\nHost: h\r\n\r\n", 500);
  EXPECT_EQ(result.error, ChainError::kTruncated);
  EXPECT_NE(result.bytes.find("abc"), std::string::npos);
  server.join();
}

TEST(Tcp, PeerCloseBeforeResponseClassifiedAsReset) {
  TcpListener listener;
  std::thread server([&] {
    int conn = listener.accept_connection();
    if (conn >= 0) {
      ::shutdown(conn, SHUT_RDWR);
      ::close(conn);
    }
  });
  TcpResult result =
      tcp_roundtrip(listener.port(), "GET / HTTP/1.1\r\nHost: h\r\n\r\n", 500);
  EXPECT_EQ(result.error, ChainError::kReset);
  EXPECT_TRUE(result.bytes.empty());
  server.join();
}

TEST(Tcp, NonHttpBytesClassifiedAsMalformed) {
  TcpListener listener;
  std::thread server([&] {
    int conn = listener.accept_connection();
    if (conn < 0) return;
    char buf[1024];
    (void)::recv(conn, buf, sizeof buf, 0);
    const char kGarbage[] = "SMTP ready\r\n\r\n";
    (void)::send(conn, kGarbage, sizeof kGarbage - 1, MSG_NOSIGNAL);
    ::shutdown(conn, SHUT_RDWR);
    ::close(conn);
  });
  TcpResult result =
      tcp_roundtrip(listener.port(), "GET / HTTP/1.1\r\nHost: h\r\n\r\n", 500);
  EXPECT_EQ(result.error, ChainError::kMalformed);
  server.join();
}

TEST(Tcp, ProxyReportsBackendConnectFailureAsGatewayError) {
  // Proxy -> backend connect failure: the proxy degrades to a 502 carrying
  // the structured classification — not a phantom empty verdict.
  auto squid = impls::make_implementation("squid");
  ModelProxy proxy(*squid, /*backend_port=*/1);
  TcpResult result = tcp_roundtrip(
      proxy.port(), "GET / HTTP/1.1\r\nHost: h1.com\r\n\r\n");
  ASSERT_TRUE(result.ok()) << to_string(result.error);
  EXPECT_NE(result.bytes.find("HTTP/1.1 502"), std::string::npos);
  EXPECT_NE(result.bytes.find("X-HDiff-Chain-Error: connect-fail"),
            std::string::npos);
}

// ---- fixed-port bind (the serve daemon's control-plane listener) ----------

TEST(Tcp, FixedPortBindReusesAReleasedPort) {
  std::uint16_t port = 0;
  {
    TcpListener first;
    port = first.port();
  }
  // SO_REUSEADDR must let a restarting daemon rebind its old port even
  // while kernel state from the previous listener lingers.
  TcpListener second(port);
  EXPECT_EQ(second.port(), port);
}

TEST(Tcp, FixedPortConflictIsChainFaultNotAbort) {
  TcpListener holder;
  RetryPolicy retry;
  retry.attempts = 3;
  retry.backoff_base_ms = 0;
  retry.backoff_max_ms = 0;
  try {
    TcpListener conflict(holder.port(), retry);
    FAIL() << "bound a port another listener holds";
  } catch (const ChainFault& fault) {
    // Classified like any transport failure, so daemon callers report a
    // structured error instead of crashing.
    EXPECT_EQ(fault.error(), ChainError::kConnectFail);
    EXPECT_NE(std::string(fault.what()).find("3 attempt"),
              std::string::npos)
        << fault.what();
  }
}

TEST(Tcp, FixedPortRetrySucceedsOnceTheHolderReleases) {
  auto holder = std::make_unique<TcpListener>();
  const std::uint16_t port = holder->port();
  RetryPolicy retry;
  retry.attempts = 50;
  retry.backoff_base_ms = 8;
  retry.backoff_max_ms = 16;
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    holder.reset();  // the dying predecessor finally lets go
  });
  TcpListener taker(port, retry);
  releaser.join();
  EXPECT_EQ(taker.port(), port);
}

// ---- retry policy ---------------------------------------------------------

TEST(Tcp, BackoffIsDeterministicBoundedAndGrowing) {
  RetryPolicy retry;
  retry.backoff_base_ms = 4;
  retry.backoff_max_ms = 64;
  const int first = retry.backoff_ms(0, "case-bytes");
  EXPECT_EQ(first, retry.backoff_ms(0, "case-bytes"));  // deterministic
  EXPECT_GE(first, retry.backoff_base_ms / 2);
  EXPECT_LE(first, retry.backoff_base_ms);
  for (int attempt = 0; attempt < 12; ++attempt) {
    const int delay = retry.backoff_ms(attempt, "case-bytes");
    EXPECT_GE(delay, 0);
    EXPECT_LE(delay, retry.backoff_max_ms);
  }
  // Different keys jitter differently at high attempt counts (usually).
  EXPECT_EQ(retry.backoff_ms(5, "a"), retry.backoff_ms(5, "a"));
}

TEST(Tcp, RetryRecoversAfterTransientReset) {
  // First connection is reset; the second is served properly.  The retry
  // wrapper must come back with the good response.
  TcpListener listener;
  std::thread server([&] {
    int first = listener.accept_connection();
    if (first >= 0) {
      ::shutdown(first, SHUT_RDWR);  // transient fault
      ::close(first);
    }
    int second = listener.accept_connection();
    if (second < 0) return;
    char buf[1024];
    (void)::recv(second, buf, sizeof buf, 0);
    const char kOk[] = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
    (void)::send(second, kOk, sizeof kOk - 1, MSG_NOSIGNAL);
    ::shutdown(second, SHUT_RDWR);
    ::close(second);
  });
  RetryPolicy retry;
  retry.attempts = 3;
  retry.backoff_base_ms = 1;
  TcpResult result = tcp_roundtrip_retry(
      listener.port(), "GET / HTTP/1.1\r\nHost: h\r\n\r\n", retry, 500);
  EXPECT_TRUE(result.ok()) << to_string(result.error);
  EXPECT_NE(result.bytes.find("HTTP/1.1 200"), std::string::npos);
  server.join();
}

TEST(Tcp, RetryAgainstDeadPortWaitsOutTheBackoffSchedule) {
  RetryPolicy retry;
  retry.attempts = 3;
  retry.backoff_base_ms = 20;
  retry.backoff_max_ms = 50;
  const std::string request = "GET / HTTP/1.1\r\nHost: h\r\n\r\n";
  const auto start = std::chrono::steady_clock::now();
  // Port 1 on loopback is almost certainly closed, as in
  // ConnectFailureIsClassifiedNotEmpty.
  const TcpResult result = tcp_roundtrip_retry(1, request, retry, 100);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.error, ChainError::kConnectFail);
  EXPECT_TRUE(result.bytes.empty());
  EXPECT_GE(elapsed, std::chrono::milliseconds(retry.backoff_ms(0, request) +
                                               retry.backoff_ms(1, request)));
}

TEST(Tcp, RetryStopsAtTheCaseDeadlineBeforeAttemptsRunOut) {
  // Every connection is accepted and closed unanswered (kReset), so each
  // attempt is one accept.  The deadline is far shorter than the backoff
  // schedule of 20 attempts, so the wrapper must give up early.
  TcpListener listener;
  std::atomic<int> accepted{0};
  std::thread server([&] {
    for (int fd; (fd = listener.accept_connection()) >= 0;) {
      ++accepted;
      ::close(fd);
    }
  });
  RetryPolicy retry;
  retry.attempts = 20;
  retry.backoff_base_ms = 50;
  retry.backoff_max_ms = 50;
  retry.case_deadline_ms = 30;
  const TcpResult result = tcp_roundtrip_retry(
      listener.port(), "GET / HTTP/1.1\r\nHost: h\r\n\r\n", retry, 500);
  listener.close_listener();
  server.join();
  EXPECT_EQ(result.error, ChainError::kReset);
  EXPECT_GE(accepted.load(), 1);
  EXPECT_LT(accepted.load(), retry.attempts);
}

TEST(Tcp, FaultInjectedModelServerSurvivesAndResets) {
  // A fault-injected model crashes the *connection*, never the serving
  // thread: every round trip is classified as a fault, and the server keeps
  // accepting.
  auto apache = impls::make_implementation("apache");
  FaultPlanConfig config;
  config.every_nth = 1;  // every model call faults
  config.kinds = {FaultKind::kReset};
  auto plan = std::make_shared<FaultPlan>(config);
  FaultyImplementation faulty(*apache, plan);
  ModelServer server(faulty);
  for (int i = 0; i < 3; ++i) {
    TcpResult result = tcp_roundtrip(
        server.port(), "GET / HTTP/1.1\r\nHost: h1.com\r\n\r\n", 300);
    EXPECT_FALSE(result.ok()) << i;
    EXPECT_TRUE(result.bytes.empty()) << i;
  }
  EXPECT_GT(plan->stats().injected, 0u);
}

}  // namespace
}  // namespace hdiff::net
