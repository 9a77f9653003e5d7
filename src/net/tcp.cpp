#include "net/tcp.h"

#include <cerrno>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>

#include "http/view.h"

namespace hdiff::net {

namespace {

/// How a client read loop stopped.
enum class StreamEnd {
  kIdle,   ///< idle timeout
  kClose,  ///< orderly peer close
  kError,  ///< recv error (reset)
};

struct ReadOutcome {
  std::string bytes;
  StreamEnd end = StreamEnd::kIdle;
};

/// Reused per-thread recv scratch (16 KiB — large enough to take a typical
/// model response in one recv) and a grow-once hint for the accumulator, so
/// steady-state roundtrips stop paying reallocation churn for every read.
constexpr std::size_t kRecvChunk = 16 * 1024;

char* recv_scratch() {
  thread_local std::unique_ptr<char[]> buf(new char[kRecvChunk]);
  return buf.get();
}

std::size_t& reserve_hint() {
  thread_local std::size_t hint = 4096;
  return hint;
}

/// Read until `idle_timeout_ms` of silence, peer close, or `stop` returns
/// true for the accumulated bytes.
ReadOutcome read_available(int fd, int idle_timeout_ms,
                           const std::function<bool(std::string_view)>& stop) {
  ReadOutcome out;
  char* buf = recv_scratch();
  out.bytes.reserve(reserve_hint());
  while (true) {
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, idle_timeout_ms);
    if (ready == 0) {
      out.end = StreamEnd::kIdle;
      break;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      out.end = StreamEnd::kError;
      break;
    }
    ssize_t n = ::recv(fd, buf, kRecvChunk, 0);
    if (n == 0) {
      out.end = StreamEnd::kClose;
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      out.end = StreamEnd::kError;
      break;
    }
    out.bytes.append(buf, static_cast<std::size_t>(n));
    if (stop && stop(out.bytes)) {
      out.end = StreamEnd::kClose;  // logically complete
      break;
    }
  }
  if (out.bytes.size() > reserve_hint()) reserve_hint() = out.bytes.size();
  return out;
}

/// Write all of `bytes`; survives short sends and EINTR, and uses
/// MSG_NOSIGNAL so a peer reset surfaces as EPIPE instead of killing the
/// serving thread with SIGPIPE.  Returns false if the peer went away.
bool send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Render the model's verdict as a real HTTP response whose headers carry
/// the HMetrics projection — the "echo information ... which shows the
/// parsing results from the end servers" of §IV-A.
std::string render_response(const impls::ServerVerdict& v) {
  int status = v.incomplete ? 408 : v.status;
  std::string reason = status == 200 ? "OK" : "Error";
  std::string body = v.body;
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                    "\r\n";
  out += "X-HDiff-Impl: " + v.impl + "\r\n";
  out += "X-HDiff-Host: " + (v.host.empty() ? "-" : v.host) + "\r\n";
  out += "X-HDiff-Framing: " + std::string(to_string(v.framing)) + "\r\n";
  out += "X-HDiff-Leftover: " + std::to_string(v.leftover.size()) + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

void abort_connection(int fd) {
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

/// Classify how a client exchange ended, given the accumulated response
/// bytes, the request that was sent (for HEAD framing) and how the stream
/// stopped.  Allocation-free: the request method is sniffed from the
/// request line and the response completeness is probed on views.
ChainError classify_exchange(std::string_view bytes, std::string_view request,
                             StreamEnd end) noexcept {
  if (bytes.empty()) {
    // Connected, sent the request, got nothing back: silence is a timeout,
    // anything else is the peer going away.
    return end == StreamEnd::kIdle ? ChainError::kTimeout : ChainError::kReset;
  }
  if (bytes.substr(0, 5) != "HTTP/") return ChainError::kMalformed;
  if (bytes.find("\r\n\r\n") == std::string_view::npos) {
    // Header block never completed.
    switch (end) {
      case StreamEnd::kIdle: return ChainError::kTimeout;
      case StreamEnd::kClose: return ChainError::kTruncated;
      case StreamEnd::kError: return ChainError::kReset;
    }
  }
  const http::Method method = http::sniff_method(request);
  http::ResponseProbe probe = http::probe_first_response(bytes, method);
  if (!probe.status_line_valid) return ChainError::kMalformed;
  // Read-until-close framing cannot distinguish "done" from "cut off";
  // the probe reports it complete, matching the legacy read-to-idle
  // semantics.
  if (probe.complete) return ChainError::kNone;
  switch (end) {
    case StreamEnd::kIdle: return ChainError::kTimeout;
    case StreamEnd::kClose: return ChainError::kTruncated;
    case StreamEnd::kError: return ChainError::kReset;
  }
  return ChainError::kMalformed;  // unreachable
}

/// One bind+listen attempt on 127.0.0.1:`port` (0 = ephemeral).  Returns
/// the listening fd and the bound port, or -1 with `*bind_errno` set.
int try_bind_loopback(std::uint16_t port, std::uint16_t* bound_port,
                      int* bind_errno) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *bind_errno = errno;
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 128) < 0) {
    *bind_errno = errno;
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

TcpListener::TcpListener() : TcpListener(0, RetryPolicy{.attempts = 1}) {}

TcpListener::TcpListener(std::uint16_t requested_port,
                         const RetryPolicy& bind_retry) {
  const int attempts = bind_retry.attempts > 0 ? bind_retry.attempts : 1;
  const std::string key = "bind:" + std::to_string(requested_port);
  int bind_errno = 0;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(bind_retry.backoff_ms(attempt - 1, key)));
    const int fd = try_bind_loopback(requested_port, &port_, &bind_errno);
    if (fd >= 0) {
      fd_.store(fd, std::memory_order_release);
      return;
    }
    // Only an in-use fixed port is worth retrying: the previous daemon
    // instance's socket is still draining and will free the address.  Any
    // other errno (EACCES, EMFILE, ...) is permanent for this process.
    if (bind_errno != EADDRINUSE || requested_port == 0) break;
  }
  throw ChainFault(ChainError::kConnectFail,
                   "bind 127.0.0.1:" + std::to_string(requested_port) +
                       " failed after " + std::to_string(attempts) +
                       " attempt(s): " + std::strerror(bind_errno));
}

TcpListener::~TcpListener() { close_listener(); }

int TcpListener::accept_connection() const {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return -1;
  return ::accept(fd, nullptr, nullptr);
}

void TcpListener::close_listener() {
  // exchange() makes concurrent closes idempotent; shutdown() unblocks a
  // serve thread parked in accept() on the captured fd.
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

TcpResult tcp_roundtrip(std::uint16_t port, std::string_view request,
                        int idle_timeout_ms) {
  TcpResult result;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    result.error = ChainError::kConnectFail;
    return result;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    result.error = ChainError::kConnectFail;
    return result;
  }
  if (!send_all(fd, request)) {
    ::close(fd);
    result.error = ChainError::kReset;
    return result;
  }
  ::shutdown(fd, SHUT_WR);
  ReadOutcome read = read_available(fd, idle_timeout_ms, nullptr);
  ::close(fd);
  result.error = classify_exchange(read.bytes, request, read.end);
  result.bytes = std::move(read.bytes);
  return result;
}

TcpResult tcp_roundtrip_retry(std::uint16_t port, std::string_view request,
                              const RetryPolicy& retry, int idle_timeout_ms) {
  const int attempts = retry.attempts < 1 ? 1 : retry.attempts;
  const auto start = std::chrono::steady_clock::now();
  TcpResult result;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    result = tcp_roundtrip(port, request, idle_timeout_ms);
    if (result.ok()) return result;
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (retry.case_deadline_ms > 0 && elapsed_ms >= retry.case_deadline_ms) {
      return result;
    }
    if (attempt + 1 < attempts) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(retry.backoff_ms(attempt, request)));
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// ModelServer
// ---------------------------------------------------------------------------

ModelServer::ModelServer(const impls::HttpImplementation& impl,
                         obs::Observability obs)
    : impl_(impl),
      obs_(obs),
      requests_(obs.metrics
                    ? &obs.metrics->counter("hdiff_server_requests_total")
                    : nullptr),
      thread_([this] { serve_loop(); }) {}

ModelServer::~ModelServer() {
  stopping_ = true;
  listener_.close_listener();
  if (thread_.joinable()) thread_.join();
}

void ModelServer::serve_loop() {
  while (!stopping_) {
    int conn = listener_.accept_connection();
    if (conn < 0) break;
    obs::Span span(obs_.trace, "serve", "server");
    if (requests_) requests_->add(1);
    try {
      std::string raw =
          read_available(conn, 200, [this](std::string_view got) {
            impls::ServerVerdict v = impl_.parse_request(got);
            return !v.incomplete;  // complete request (accepted or rejected)
          }).bytes;
      impls::ServerVerdict verdict = impl_.parse_request(raw);
      send_all(conn, render_response(verdict));
    } catch (const ChainFault&) {
      // Fault-injected model: behave like a crashed upstream — drop the
      // connection without a response, but keep serving.
    }
    abort_connection(conn);
  }
}

// ---------------------------------------------------------------------------
// ModelProxy
// ---------------------------------------------------------------------------

ModelProxy::ModelProxy(const impls::HttpImplementation& impl,
                       std::uint16_t backend_port, RetryPolicy backend_retry,
                       obs::Observability obs)
    : impl_(impl),
      backend_port_(backend_port),
      backend_retry_(backend_retry),
      obs_(obs),
      requests_(obs.metrics
                    ? &obs.metrics->counter("hdiff_proxy_requests_total")
                    : nullptr),
      gateway_errors_(
          obs.metrics
              ? &obs.metrics->counter("hdiff_proxy_gateway_errors_total")
              : nullptr),
      thread_([this] { serve_loop(); }) {}

ModelProxy::~ModelProxy() {
  stopping_ = true;
  listener_.close_listener();
  if (thread_.joinable()) thread_.join();
}

void ModelProxy::serve_loop() {
  while (!stopping_) {
    int conn = listener_.accept_connection();
    if (conn < 0) break;
    obs::Span span(obs_.trace, "proxy-request", "proxy");
    if (requests_) requests_->add(1);
    try {
      std::string raw =
          read_available(conn, 200, [this](std::string_view got) {
            impls::ProxyVerdict v = impl_.forward_request(got);
            return !v.incomplete;
          }).bytes;
      impls::ProxyVerdict verdict = impl_.forward_request(raw);
      if (verdict.forwarded()) {
        TcpResult backend;
        {
          obs::Span upstream(obs_.trace, "forward->backend", "proxy");
          backend = tcp_roundtrip_retry(backend_port_, verdict.forwarded_bytes,
                                        backend_retry_);
        }
        if (backend.ok()) {
          send_all(conn, backend.bytes);
        } else {
          // Graceful degradation: a back-end fault becomes a gateway error
          // carrying the structured classification, never a phantom empty
          // response.
          if (gateway_errors_) gateway_errors_->add(1);
          const int status =
              backend.error == ChainError::kTimeout ? 504 : 502;
          std::string response =
              "HTTP/1.1 " + std::to_string(status) +
              (status == 504 ? " Gateway Timeout" : " Bad Gateway") +
              "\r\nX-HDiff-Chain-Error: " +
              std::string(to_string(backend.error)) +
              "\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
          send_all(conn, response);
        }
      } else {
        std::string response = "HTTP/1.1 " + std::to_string(verdict.status) +
                               " Error\r\nX-HDiff-Impl: " + verdict.impl +
                               "\r\nContent-Length: 0\r\nConnection: close"
                               "\r\n\r\n";
        send_all(conn, response);
      }
    } catch (const ChainFault&) {
      // Fault-injected proxy model: crash the connection, not the thread.
    }
    abort_connection(conn);
  }
}

}  // namespace hdiff::net
