// Real-socket hosting for the behaviour models (paper §IV-A: the authors
// drive the products over raw sockets; here the models themselves are served
// over loopback TCP so the chain can be exercised by any HTTP client).
//
// Scope: deliberately minimal — blocking I/O, loopback only, one connection
// serviced at a time per server.  `tcp_roundtrip{,_retry}` is the one client
// transport: ModelProxy's backend leg, the control-plane client
// (`control_get` in serve/control.h, used by `hdiff tail` and the tests) and
// examples/live_chain.cpp each send one roundtrip at a time from their own
// thread.  The in-process Chain (chain.h) remains the engine for bulk
// differential testing.
//
// Fault model: every client round trip returns a `TcpResult` carrying a
// `ChainError` classification alongside whatever bytes arrived, so a
// connect failure, a stalled peer and a legitimately empty response are
// three different observations — the seed's ""-on-failure conflation is
// gone.  Serving threads survive peer resets (MSG_NOSIGNAL, short-send
// handling) and fault-injected models (a ChainFault aborts the connection,
// simulating a crashed upstream, instead of killing the thread).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

#include "impls/model.h"
#include "net/error.h"
#include "obs/obs.h"

namespace hdiff::net {

/// RAII loopback TCP listener on an ephemeral port.
///
/// Bind failures throw `ChainFault` (is-a std::runtime_error) carrying a
/// `ChainError` classification, so a daemon restart that loses the bind
/// race reports a structured harness fault instead of aborting opaquely.
class TcpListener {
 public:
  TcpListener();               ///< ephemeral port; throws ChainFault on failure
  /// Bind a *requested* port (the serve control plane needs a stable
  /// address across daemon restarts).  EADDRINUSE — the previous daemon
  /// instance's socket still draining — is retried up to
  /// `bind_retry.attempts` times with the policy's deterministic backoff
  /// (keyed on the port); SO_REUSEADDR makes a TIME_WAIT-held port bindable
  /// immediately.  Throws ChainFault(kConnectFail) when attempts run out.
  explicit TcpListener(std::uint16_t requested_port,
                       const RetryPolicy& bind_retry = {});
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// The listening fd, or -1 once closed.  For pollers (net::ServeLoop)
  /// that multiplex the listener with other fds; they may flip it to
  /// O_NONBLOCK but must not close it.
  int native_handle() const noexcept {
    return fd_.load(std::memory_order_acquire);
  }

  /// Blocking accept; returns the connection fd or -1 once closed.
  int accept_connection() const;

  /// Unblock any pending accept and invalidate the listener.  Safe to call
  /// from a different thread than the one blocked in accept_connection()
  /// (that is its purpose); `fd_` is atomic so the close/accept handoff is
  /// race-free.
  void close_listener();

 private:
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

/// Outcome of one client round trip.  `bytes` holds whatever arrived (it
/// may be non-empty even on error — e.g. a truncated body); `error`
/// classifies how the exchange ended.
struct TcpResult {
  ChainError error = ChainError::kNone;
  std::string bytes;

  bool ok() const noexcept { return error == ChainError::kNone; }
};

/// Connect to 127.0.0.1:port, send `request` and read the full response
/// (until the peer closes or `idle_timeout_ms` of silence).  Classification:
///   kConnectFail — could not connect;
///   kReset      — peer reset, or closed before sending anything;
///   kTimeout    — idle timeout before the response completed;
///   kTruncated  — peer closed mid-message (framing shows missing bytes);
///   kMalformed  — the bytes received are not an HTTP response;
///   kNone       — a complete response (read-until-close framing counts the
///                 close, and the idle timeout, as normal completion).
TcpResult tcp_roundtrip(std::uint16_t port, std::string_view request,
                        int idle_timeout_ms = 500);

/// `tcp_roundtrip` under a RetryPolicy: transient failures (connect-fail,
/// reset, timeout) are retried with exponential backoff and deterministic
/// jitter keyed on the request bytes; the last attempt's result is
/// returned.  kTruncated/kMalformed responses are also retried — on a
/// flaky harness they are transport damage, not behaviour.
TcpResult tcp_roundtrip_retry(std::uint16_t port, std::string_view request,
                              const RetryPolicy& retry,
                              int idle_timeout_ms = 500);

/// Serve one behaviour model as a real HTTP origin server.  Each connection
/// reads one request (until the model stops reporting `incomplete` or the
/// peer goes idle), answers with a small response carrying the model's
/// HMetrics as headers, and closes.  A ChainFault from a fault-injected
/// model aborts the connection without a response (upstream crash).
class ModelServer {
 public:
  /// `obs`, when enabled, emits one "serve" span per connection and counts
  /// requests in `hdiff_server_requests_total`.  The sink/registry must
  /// outlive the server; render traces only after the server is destroyed
  /// (the serving thread writes until then).
  explicit ModelServer(const impls::HttpImplementation& impl,
                       obs::Observability obs = {});
  ~ModelServer();

  std::uint16_t port() const noexcept { return listener_.port(); }

 private:
  void serve_loop();

  const impls::HttpImplementation& impl_;
  TcpListener listener_;
  obs::Observability obs_;
  obs::Counter* requests_ = nullptr;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

/// Serve one behaviour model as a real reverse proxy in front of
/// `backend_port`: requests are run through forward_request(); forwarded
/// bytes go to the back-end over a fresh connection and the back-end's
/// response is relayed; rejections are answered locally.  Back-end faults
/// are answered as gateway errors (502, or 504 on timeout) carrying the
/// classification in an X-HDiff-Chain-Error header.
class ModelProxy {
 public:
  /// `backend_retry` governs the proxy->backend leg (fixed at construction:
  /// the serving thread starts immediately).  `obs`, when enabled, emits a
  /// "proxy-request" span per connection and a "forward->backend" span per
  /// upstream leg, and counts requests/gateway errors; same lifetime rules
  /// as ModelServer.
  ModelProxy(const impls::HttpImplementation& impl, std::uint16_t backend_port,
             RetryPolicy backend_retry = {.attempts = 2},
             obs::Observability obs = {});
  ~ModelProxy();

  std::uint16_t port() const noexcept { return listener_.port(); }

 private:
  void serve_loop();

  const impls::HttpImplementation& impl_;
  std::uint16_t backend_port_;
  RetryPolicy backend_retry_;
  TcpListener listener_;
  obs::Observability obs_;
  obs::Counter* requests_ = nullptr;
  obs::Counter* gateway_errors_ = nullptr;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace hdiff::net
