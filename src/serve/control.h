// The `hdiff serve` control plane's HTTP server: a poll()-based
// accept/read/dispatch/write pump over a TcpListener, driven from the
// owner's own thread via `poll_once` so the supervisor multiplexes HTTP
// handling with worker heartbeats and waitpid in one loop, no threads.
// Deliberately poll()-only: a control plane holds a handful of fds.  One
// HTTP request per connection (Connection: close), bodies framed by exactly
// one strict decimal Content-Length; anything else is rejected before the
// handler sees it.  `control_get` is the matching client, shared by
// `hdiff tail` and the tests.  Built into hdiff_serve rather than hdiff_net
// because both sides read decimals with `core::parse_dec`; the names stay
// in `hdiff::net`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/tcp.h"
#include "obs/obs.h"

namespace hdiff::net {

/// One parsed control-plane request.
struct ControlRequest {
  std::string method;  ///< e.g. "GET", "POST"
  std::string target;  ///< origin-form target, e.g. "/healthz"
  std::string body;    ///< Content-Length bytes (may be empty)
};

/// What the handler answers.  `status` picks a canned reason phrase.
struct ControlResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

using ControlHandler = std::function<ControlResponse(const ControlRequest&)>;

struct ServeLoopConfig {
  /// Drop a connection that has not completed its request or drained its
  /// response within this window (a stalled client must not pin fds in the
  /// daemon).
  int conn_timeout_ms = 2000;
  /// Reject request heads/bodies larger than this (control requests are
  /// tiny; anything big is abuse or a framing bug).
  std::size_t max_request_bytes = 64 * 1024;
  obs::Observability obs{};
  /// Per-endpoint instrumentation allowlist: when non-empty (and metrics
  /// are on), every dispatched request counts toward
  /// `hdiff_serve_control_requests_total{target,status}`.  Targets are
  /// normalized first — the query string is stripped and anything not
  /// listed here becomes `other` — so a scanning client cannot mint
  /// unbounded label sets; unparseable requests count as `invalid`.
  std::vector<std::string> known_targets;
};

/// Poll-based single-threaded HTTP server pump.  Not thread-safe; the
/// listener must outlive the loop.  Malformed requests — including an
/// empty, signed, zero-padded, overflowing, folded or repeated
/// Content-Length — are answered 400 and counted as rejected; a request
/// whose declared size exceeds `max_request_bytes` is answered 413 as soon
/// as its header block arrives; handler exceptions answer 500.
class ServeLoop {
 public:
  ServeLoop(TcpListener& listener, ControlHandler handler,
            ServeLoopConfig config = {});
  ~ServeLoop();
  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  /// Accept new connections and advance every open one; blocks at most
  /// `timeout_ms` waiting for activity (0 = pure poll).  Returns the number
  /// of requests dispatched to the handler during this pass.
  std::size_t poll_once(int timeout_ms);

  std::size_t requests_handled() const noexcept { return requests_handled_; }
  std::size_t requests_rejected() const noexcept { return requests_rejected_; }
  std::size_t open_connections() const noexcept;

 private:
  struct ServeConn;
  void finish(ServeConn& c, int status, std::string_view content_type,
              std::string_view body);
  void count_request(std::string_view target, int status);

  TcpListener& listener_;
  ControlHandler handler_;
  ServeLoopConfig config_;
  obs::Counter* requests_ = nullptr;  ///< hdiff_serve_http_requests_total
  obs::Counter* rejected_ = nullptr;  ///< hdiff_serve_http_rejected_total
  /// Cache of per-(target,status) counters so repeat requests skip the
  /// registry name lookup.
  std::map<std::string, obs::Counter*> control_counters_;
  std::vector<ServeConn> conns_;
  std::size_t requests_handled_ = 0;
  std::size_t requests_rejected_ = 0;
};

/// One control-plane reply as a client reads it.
struct ControlProbe {
  int status = 0;  ///< 0 = transport failure or no well-formed status line
  std::string body;
};

/// Read a reply: the status must be exactly three digits between
/// "HTTP/1.1 " and a space, else `status` is 0 and `body` empty; the body
/// is whatever follows the header block.
ControlProbe parse_control_reply(std::string_view bytes);

/// Send `method target` with an empty body to the control plane on loopback
/// `port` and read the reply; `idle_timeout_ms` as in `tcp_roundtrip`.
ControlProbe control_get(std::uint16_t port, std::string_view method,
                         std::string_view target, int idle_timeout_ms = 500);

}  // namespace hdiff::net
