#include "serve/control.h"

#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "core/record.h"
#include "http/view.h"

namespace hdiff::net {

namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) >= 0;
}

std::string_view reason_phrase(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return status < 400 ? "OK" : "Error";
  }
}

/// Where one control request ends inside `in`: npos while incomplete,
/// otherwise header-block length + Content-Length body bytes.  A request
/// that can never be served sets `*reject` to its status instead: 400 for a
/// Content-Length that is not exactly one strict decimal, 413 when the
/// declared request exceeds `max_bytes` (without waiting for the body).
std::size_t request_end(std::string_view in, std::size_t max_bytes,
                        int* reject) {
  const std::size_t head = in.find("\r\n\r\n");
  if (head == std::string_view::npos) return std::string_view::npos;
  const std::size_t body_start = head + 4;
  // Borrow the view parser for header lookup; the body may still be partial
  // but the parser is descriptive and only the header block is consulted.
  http::RequestView view = http::parse_request_view(in);
  std::size_t body_len = 0;
  if (const std::size_t n = view.count("content-length"); n != 0) {
    const http::HeaderView* cl = view.find_first("content-length");
    if (n > 1 || cl->folded() || !core::parse_dec(cl->value, &body_len)) {
      *reject = 400;
      return std::string_view::npos;
    }
  }
  // Longer input was answered 413 on read, so body_start <= max_bytes;
  // bounding body_len first keeps the sum from wrapping.
  if (body_len > max_bytes || body_start + body_len > max_bytes) {
    *reject = 413;
    return std::string_view::npos;
  }
  if (in.size() < body_start + body_len) return std::string_view::npos;
  return body_start + body_len;
}

}  // namespace

struct ServeLoop::ServeConn {
  int fd = -1;
  std::string in;
  std::string out;
  std::size_t out_off = 0;
  bool writing = false;   ///< request finished; draining `out`
  bool rejected = false;  ///< counted toward requests_rejected
  TimePoint deadline{};
};

ServeLoop::ServeLoop(TcpListener& listener, ControlHandler handler,
                     ServeLoopConfig config)
    : listener_(listener), handler_(std::move(handler)), config_(config) {
  if (config_.obs.metrics != nullptr) {
    requests_ =
        &config_.obs.metrics->counter("hdiff_serve_http_requests_total");
    rejected_ =
        &config_.obs.metrics->counter("hdiff_serve_http_rejected_total");
  }
  // Nonblocking accept: poll readiness can go stale (the peer can reset
  // between poll() and accept()), and a control plane must never park.
  set_nonblocking(listener_.native_handle());
}

ServeLoop::~ServeLoop() {
  for (const ServeConn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

std::size_t ServeLoop::open_connections() const noexcept {
  return conns_.size();
}

void ServeLoop::count_request(std::string_view target, int status) {
  if (config_.obs.metrics == nullptr || config_.known_targets.empty()) return;
  // Normalize before labeling: query strings are per-request noise and
  // unknown paths collapse to one bucket, keeping label cardinality at
  // |known_targets| x |statuses|.
  std::string normalized;
  if (target.empty()) {
    normalized = "invalid";
  } else {
    const std::string_view path = target.substr(0, target.find('?'));
    normalized = "other";
    for (const std::string& known : config_.known_targets) {
      if (path == known) {
        normalized = known;
        break;
      }
    }
  }
  const std::string key = normalized + "\x1f" + std::to_string(status);
  auto it = control_counters_.find(key);
  if (it == control_counters_.end()) {
    obs::Counter& counter = config_.obs.metrics->counter(obs::labeled_name(
        "hdiff_serve_control_requests_total",
        obs::prom_label("target", normalized) + "," +
            obs::prom_label("status", std::to_string(status))));
    it = control_counters_.emplace(key, &counter).first;
  }
  it->second->add();
}

void ServeLoop::finish(ServeConn& c, int status, std::string_view content_type,
                       std::string_view body) {
  c.out = "HTTP/1.1 " + std::to_string(status) + " " +
          std::string(reason_phrase(status)) + "\r\n";
  c.out += "Content-Type: " + std::string(content_type) + "\r\n";
  c.out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  c.out += "Connection: close\r\n\r\n";
  c.out += body;
  c.out_off = 0;
  c.writing = true;
}

std::size_t ServeLoop::poll_once(int timeout_ms,
                                 std::span<const int> wake_fds) {
  const int listen_fd = listener_.native_handle();
  // Connections accepted during this pass wait for the next one.
  const std::size_t polled = conns_.size();
  std::vector<pollfd> pfds;
  pfds.reserve(polled + 1 + wake_fds.size());
  if (listen_fd >= 0) pfds.push_back({listen_fd, POLLIN, 0});
  for (const ServeConn& c : conns_) {
    pfds.push_back({c.fd, static_cast<short>(c.writing ? POLLOUT : POLLIN), 0});
  }
  for (int fd : wake_fds) pfds.push_back({fd, POLLIN, 0});
  if (pfds.empty()) return 0;
  int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (ready < 0 && errno != EINTR) return 0;

  std::size_t dispatched = 0;
  std::size_t pi = 0;
  if (listen_fd >= 0) {
    if (ready > 0 && (pfds[0].revents & (POLLIN | POLLERR)) != 0) {
      while (true) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) break;  // EAGAIN: accepted everything pending
        set_nonblocking(fd);
        ServeConn c;
        c.fd = fd;
        c.deadline = Clock::now() +
                     std::chrono::milliseconds(config_.conn_timeout_ms);
        conns_.push_back(std::move(c));
      }
    }
    pi = 1;
  }

  const TimePoint now = Clock::now();
  char buf[4096];
  for (std::size_t i = 0; i < polled; ++i) {
    ServeConn& c = conns_[i];
    const short revents = ready > 0 ? pfds[pi + i].revents : 0;
    if (!c.writing && (revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      // Half-close is normal client behaviour (send, shutdown(WR), read):
      // EOF only rejects when no complete request was buffered first.
      bool eof = false;
      while (true) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
          if (c.in.size() > config_.max_request_bytes) {
            c.rejected = true;
            count_request("", 413);
            finish(c, 413, "text/plain; charset=utf-8",
                   "request too large\n");
            break;
          }
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        eof = true;  // orderly close or reset
        break;
      }
      if (!c.writing) {
        int reject = 0;
        const std::size_t end =
            request_end(c.in, config_.max_request_bytes, &reject);
        if (reject != 0 || (eof && end == std::string::npos)) {
          c.rejected = true;
          if (reject != 0) {
            count_request("", reject);
            finish(c, reject, "text/plain; charset=utf-8",
                   reject == 413 ? "request too large\n" : "bad request\n");
          } else {
            c.out.clear();
            c.writing = true;  // peer gone mid-request; reaped below
          }
        } else if (end != std::string::npos) {
          http::RequestView view =
              http::parse_request_view(std::string_view(c.in).substr(0, end));
          ControlRequest request;
          request.method = std::string(view.line.method_token);
          request.target = std::string(view.line.target);
          const std::size_t body_start = c.in.find("\r\n\r\n") + 4;
          request.body = c.in.substr(body_start, end - body_start);
          if (request.method.empty() || request.target.empty()) {
            c.rejected = true;
            count_request("", 400);
            finish(c, 400, "text/plain; charset=utf-8", "bad request\n");
          } else {
            ++dispatched;
            ++requests_handled_;
            if (requests_ != nullptr) requests_->add();
            ControlResponse response;
            try {
              response = handler_(request);
            } catch (const std::exception& e) {
              response.status = 500;
              response.content_type = "text/plain; charset=utf-8";
              response.body = std::string("handler error: ") + e.what() + "\n";
            }
            count_request(request.target, response.status);
            finish(c, response.status, response.content_type, response.body);
          }
        }
      }
    }
    if (c.writing && c.out_off < c.out.size() &&
        (revents & (POLLOUT | POLLHUP | POLLERR)) != 0) {
      while (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        c.out_off = c.out.size();  // peer gone; drop the response
        c.rejected = true;
        break;
      }
    }
    if (!c.writing && c.deadline <= now) {
      c.rejected = true;
      c.out.clear();
      c.writing = true;  // stalled client: reap without a response
    }
  }

  // Reap finished (response fully drained) and abandoned connections.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    ServeConn& c = conns_[i];
    if (c.writing && c.out_off >= c.out.size()) {
      if (c.rejected) {
        ++requests_rejected_;
        if (rejected_ != nullptr) rejected_->add();
      }
      ::close(c.fd);
      continue;
    }
    if (kept != i) conns_[kept] = std::move(c);
    ++kept;
  }
  conns_.resize(kept);
  return dispatched;
}

ControlProbe parse_control_reply(std::string_view bytes) {
  constexpr std::string_view kVersion = "HTTP/1.1 ";
  unsigned code = 0;  // unsigned: no sign; parse_dec: no leading zero
  if (bytes.size() < kVersion.size() + 4 || !bytes.starts_with(kVersion) ||
      bytes[kVersion.size() + 3] != ' ' ||
      !core::parse_dec(bytes.substr(kVersion.size(), 3), &code)) {
    return {};
  }
  ControlProbe probe;
  probe.status = static_cast<int>(code);
  const std::size_t body = bytes.find("\r\n\r\n");
  if (body != std::string_view::npos) probe.body = bytes.substr(body + 4);
  return probe;
}

ControlProbe control_get(std::uint16_t port, std::string_view method,
                         std::string_view target, int idle_timeout_ms) {
  const std::string request = std::string(method) + " " + std::string(target) +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Content-Length: 0\r\n\r\n";
  const TcpResult result = tcp_roundtrip(port, request, idle_timeout_ms);
  if (!result.ok()) return {};
  return parse_control_reply(result.bytes);
}

}  // namespace hdiff::net
