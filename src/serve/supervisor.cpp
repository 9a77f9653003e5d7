#include "serve/supervisor.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <utility>

#include "campaign/shard.h"
#include "campaign/store.h"
#include "core/record.h"
#include "net/chain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report/json.h"
#include "serve/flight.h"
#include "serve/worker.h"

namespace hdiff::serve {

namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/// One worker slot (one shard) of the executing round.
struct Slot {
  WorkerHealth health = WorkerHealth::kIdle;
  pid_t pid = -1;
  int pipe_fd = -1;  ///< heartbeat read end (nonblocking)
  TimePoint spawned_at{};
  TimePoint last_beat{};
  TimePoint respawn_at{};
  int consecutive_deaths = 0;
  bool done = false;       ///< this shard's result is in hand
  bool kill_sent = false;  ///< hang SIGKILL already fired this spawn
  bool chaos_sent = false;  ///< a chaos action already signalled this spawn
};

/// All run() state lives here so the control-plane handler (a lambda over
/// `this`) can report on it; everything runs on one thread, so no locks.
class Runner {
 public:
  Runner(const ServeConfig& config,
         const std::vector<std::unique_ptr<impls::HttpImplementation>>& fleet,
         net::TcpListener& listener)
      : config_(config),
        listener_(listener),
        store_(config.campaign.state_dir),
        chain_(net::Chain::from_fleet(fleet)),
        sobs_(obs::ServeObs::from(config.obs)),
        own_fleet_(config.obs.metrics),
        fleet_(config.fleet != nullptr ? config.fleet : &own_fleet_),
        flight_(config.campaign.state_dir, config.obs.clock,
                config.flight_capacity),
        hb_(config.obs.metrics, config.obs.clock,
            config.shards == 0 ? 1 : config.shards),
        serve_loop_(
            listener,
            [this](const net::ControlRequest& rq) { return handle(rq); },
            net::ServeLoopConfig{
                .obs = config.obs,
                .known_targets = {"/healthz", "/readyz", "/status", "/metrics",
                                  "/events",
                                  "/campaigns/" + config.campaign_id +
                                      "/stop"}}) {
    // Resume the persisted lifecycle ring before anything can be recorded,
    // so /events sequence numbers continue across supervisor generations.
    flight_.load();
    // Restart backoff must fit inside one heartbeat interval, or a crashed
    // worker cannot be back before /healthz is allowed to degrade.
    restart_ = config_.restart;
    const int cap = config_.heartbeat_interval_ms / 2;
    if (cap > 0 && restart_.backoff_max_ms > cap) restart_.backoff_max_ms = cap;
    if (restart_.backoff_base_ms > restart_.backoff_max_ms) {
      restart_.backoff_base_ms = restart_.backoff_max_ms > 0
                                     ? restart_.backoff_max_ms
                                     : 1;
    }
    quarantined_.assign(shards(), false);
    slots_.assign(shards(), Slot{});
    chaos_fired_.assign(config_.chaos.size(), false);
  }

  ~Runner() {
    for (Slot& slot : slots_) release_slot(slot);
  }

  ServeReport run();

 private:
  std::size_t shards() const noexcept {
    return config_.shards == 0 ? 1 : config_.shards;
  }

  bool drain_requested() const noexcept {
    if (stop_requested_) return true;
    return config_.drain_flag != nullptr && *config_.drain_flag != 0;
  }

  /// /healthz contract: degraded only while an executing slot has a dead
  /// worker awaiting respawn.  Quarantined shards are handled failures.
  bool degraded() const noexcept {
    if (!executing_) return false;
    for (const Slot& slot : slots_) {
      if (slot.health == WorkerHealth::kDegraded) return true;
    }
    return false;
  }

  /// Serve the control plane for up to `timeout_ms`, waking early when a
  /// worker's heartbeat pipe has a byte or hangs up.
  void pump(int timeout_ms) {
    std::vector<int> pipes;
    for (const Slot& slot : slots_) {
      if (slot.pipe_fd >= 0) pipes.push_back(slot.pipe_fd);
    }
    serve_loop_.poll_once(timeout_ms, pipes);
  }

  net::ControlResponse handle(const net::ControlRequest& rq);
  std::string status_json() const;

  bool execute_round_sharded(std::size_t round,
                             const campaign::RoundPlan& plan,
                             std::vector<campaign::ShardResult>* results);
  bool spawn_worker(std::size_t round, const campaign::RoundPlan& plan,
                    std::size_t shard);
  /// Fire the chaos actions (tests) due for this round's live workers.
  void inject_chaos(std::size_t round);
  void release_slot(Slot& slot);
  void on_death(std::size_t shard);
  /// Stop spawning workers for `shard`; the supervisor runs it inline.
  void quarantine(std::size_t shard, const std::string& why);
  /// What a shard's run_shard is asked, inline or in a forked worker.
  WorkerOptions shard_ask(std::size_t round, std::size_t shard) const;
  campaign::ShardResult run_inline(std::size_t round,
                                   const campaign::RoundPlan& plan,
                                   std::size_t shard);
  void accumulate_stats(const campaign::ShardResult& result);
  void absorb_obs(const campaign::ShardResult& result);
  void update_health_gauge();

  const ServeConfig& config_;
  net::TcpListener& listener_;
  campaign::StateStore store_;
  net::Chain chain_;
  obs::ServeObs sobs_;
  FleetMetrics own_fleet_;  ///< used when the caller supplies none
  FleetMetrics* fleet_;
  FlightRecorder flight_;
  HeartbeatTracker hb_;
  net::ServeLoop serve_loop_;
  net::RetryPolicy restart_;

  ServeReport report_;
  std::vector<Slot> slots_;
  std::vector<bool> quarantined_;  ///< persists across rounds
  std::vector<bool> chaos_fired_;  ///< one-shot latch per chaos action
  bool ready_ = false;
  bool executing_ = false;
  bool stop_requested_ = false;
  std::size_t round_ = 0;

  // Cumulative executor degradation counters across all merged shard
  // results and inline executions (satellite: surfaced on /status).
  std::size_t cum_faulted_ = 0;
  std::size_t cum_retry_ = 0;
  std::size_t cum_recovered_ = 0;
  std::size_t cum_quarantined_cases_ = 0;

  // Cumulative round-integration tallies for /status (hdiff tail computes
  // novelty/divergence rates from these between polls).
  std::size_t cum_cases_ = 0;
  std::size_t cum_novel_ = 0;
  std::size_t cum_duplicate_ = 0;
  bool drain_recorded_ = false;  ///< flight "drain" event fired once
};

void Runner::release_slot(Slot& slot) {
  if (slot.pipe_fd >= 0) {
    ::close(slot.pipe_fd);
    slot.pipe_fd = -1;
  }
  if (slot.pid > 0) {
    ::kill(slot.pid, SIGKILL);
    ::waitpid(slot.pid, nullptr, 0);
    slot.pid = -1;
  }
}

net::ControlResponse Runner::handle(const net::ControlRequest& rq) {
  net::ControlResponse response;
  if (rq.target == "/healthz") {
    if (degraded()) {
      response.status = 503;
      response.body = "degraded: worker down, respawn pending\n";
    } else {
      response.body = "ok\n";
    }
    return response;
  }
  if (rq.target == "/readyz") {
    if (!ready_) {
      response.status = 503;
      response.body = "starting\n";
    } else if (drain_requested()) {
      response.status = 503;
      response.body = "draining\n";
    } else {
      response.body = "ok\n";
    }
    return response;
  }
  if (rq.target == "/status") {
    response.content_type = "application/json";
    response.body = status_json();
    return response;
  }
  if (rq.target == "/metrics") {
    response.content_type = "text/plain; version=0.0.4";
    // Fleet render = supervisor totals (absorbed worker snapshots included)
    // plus per-origin labeled series; empty when metrics are off.
    response.body = fleet_->render();
    return response;
  }
  if (rq.target == "/events" || rq.target.rfind("/events?", 0) == 0) {
    std::uint64_t since = 0;
    const std::size_t q = rq.target.find("since=");
    if (q != std::string::npos) {
      const std::string_view value = std::string_view(rq.target).substr(q + 6);
      if (!core::parse_dec(value.substr(0, value.find('&')), &since)) {
        response.status = 400;
        response.body = "since wants a decimal sequence number\n";
        return response;
      }
    }
    response.content_type = "application/json";
    response.body = flight_.events_json(since);
    return response;
  }
  const std::string stop_target = "/campaigns/" + config_.campaign_id + "/stop";
  if (rq.target == stop_target) {
    if (rq.method != "POST") {
      response.status = 405;
      response.body = "stop wants POST\n";
      return response;
    }
    if (!stop_requested_) {
      flight_.record("stop", round_, FlightEvent::kNone, "control-plane");
    }
    stop_requested_ = true;
    response.status = 202;
    response.body = "draining: finishing the current round\n";
    return response;
  }
  response.status = 404;
  response.body = "unknown control target\n";
  return response;
}

std::string Runner::status_json() const {
  std::string out = "{";
  out += "\"campaign\":" + report::json_string(config_.campaign_id) + ",";
  out += std::string("\"state\":\"") +
         (drain_requested() ? "draining" : "running") + "\",";
  out += "\"degraded\":" + std::string(degraded() ? "true" : "false") + ",";
  out += "\"round\":" + std::to_string(round_) + ",";
  out += "\"rounds_completed\":" + std::to_string(store_.rounds_completed) +
         ",";
  out += "\"target_rounds\":" + std::to_string(config_.campaign.rounds + 1) +
         ",";
  out += "\"shards\":" + std::to_string(shards()) + ",";
  out += "\"findings\":" + std::to_string(store_.findings.size()) + ",";
  out += "\"corpus_entries\":" + std::to_string(store_.entries.size()) + ",";
  out += "\"retry_depth\":" + std::to_string(store_.retry_queue.size()) + ",";
  out += "\"workers\":[";
  for (std::size_t k = 0; k < slots_.size(); ++k) {
    const Slot& slot = slots_[k];
    if (k != 0) out += ",";
    out += "{\"shard\":" + std::to_string(k) + ",";
    out += "\"health\":\"" + std::string(to_string(slot.health)) + "\",";
    out += "\"pid\":" + std::to_string(slot.pid > 0 ? slot.pid : -1) + ",";
    out += "\"consecutive_deaths\":" +
           std::to_string(slot.consecutive_deaths) + ",";
    out += "\"last_heartbeat_ms\":" + std::to_string(hb_.age_ms(k)) + ",";
    out += "\"done\":" + std::string(slot.done ? "true" : "false") + "}";
  }
  out += "],";
  out += "\"novelty\":{";
  out += "\"cases\":" + std::to_string(cum_cases_) + ",";
  out += "\"novel\":" + std::to_string(cum_novel_) + ",";
  out += "\"duplicate\":" + std::to_string(cum_duplicate_) + "},";
  out += "\"executor\":{";
  out += "\"faulted_attempts\":" + std::to_string(cum_faulted_) + ",";
  out += "\"retry_attempts\":" + std::to_string(cum_retry_) + ",";
  out += "\"recovered_cases\":" + std::to_string(cum_recovered_) + ",";
  out += "\"quarantined_cases\":" + std::to_string(cum_quarantined_cases_) +
         "},";
  out += "\"supervisor\":{";
  out += "\"worker_spawns\":" + std::to_string(report_.worker_spawns) + ",";
  out += "\"worker_deaths\":" + std::to_string(report_.worker_deaths) + ",";
  out += "\"worker_hangs\":" + std::to_string(report_.worker_hangs) + ",";
  out += "\"worker_restarts\":" + std::to_string(report_.worker_restarts) +
         ",";
  out += "\"quarantined_shards\":" +
         std::to_string(report_.quarantined_shards) + ",";
  out += "\"reused_shard_results\":" +
         std::to_string(report_.reused_shard_results) + "}";
  out += "}";
  return out;
}

bool Runner::spawn_worker(std::size_t round, const campaign::RoundPlan& plan,
                          std::size_t shard) {
  Slot& slot = slots_[shard];
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return false;
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);  // supervisor-side read end

  const pid_t pid = ::fork();
  if (pid == 0) {
    // The child holds this round's plan, the chain and the config already:
    // it runs its shard and leaves through _exit, never returning here.
    WorkerOptions ask = shard_ask(round, shard);
    ask.heartbeat_fd = fds[1];
    ask.heartbeat_interval_ms = config_.heartbeat_interval_ms;
    worker_main(config_.campaign, ask, chain_, plan);
  }
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    return false;
  }

  slot.pid = pid;
  slot.pipe_fd = fds[0];
  slot.health = WorkerHealth::kSpawned;
  slot.spawned_at = slot.last_beat = Clock::now();
  slot.kill_sent = slot.chaos_sent = false;
  ++report_.worker_spawns;
  if (sobs_.spawns) sobs_.spawns->add();
  hb_.beat(shard);  // age measures from spawn until the first real beat
  flight_.record("spawn", round, shard, "pid " + std::to_string(pid));
  // A zero-delay chaos action fires before the next shard is spawned: a
  // worker that finished its slice while later shards were still being
  // spawned would otherwise dodge its signal.
  inject_chaos(round);
  return true;
}

void Runner::inject_chaos(std::size_t round) {
  // Chaos injection (tests): signal a freshly spawned worker.  Each action
  // fires at most once ever (not once per spawn — a respawned worker must
  // be allowed to finish, or a kill action would starve its shard forever),
  // and at most one action signals a spawn, so two actions kill two spawns.
  const TimePoint now = Clock::now();
  for (std::size_t a = 0; a < config_.chaos.size(); ++a) {
    const ChaosAction& action = config_.chaos[a];
    if (chaos_fired_[a] || action.round != round ||
        action.shard >= slots_.size()) {
      continue;
    }
    Slot& slot = slots_[action.shard];
    if (slot.pid <= 0 || slot.done || slot.chaos_sent) continue;
    if (now - slot.spawned_at < std::chrono::milliseconds(action.delay_ms)) {
      continue;
    }
    chaos_fired_[a] = slot.chaos_sent = true;
    ::kill(slot.pid,
           action.kind == ChaosAction::Kind::kKill ? SIGKILL : SIGSTOP);
  }
}

void Runner::quarantine(std::size_t shard, const std::string& why) {
  // The supervisor runs the shard inline from now on, so the round still
  // completes.
  slots_[shard].health = WorkerHealth::kQuarantined;
  quarantined_[shard] = true;
  ++report_.quarantined_shards;
  flight_.record("quarantine", round_, shard, why + "; running inline");
  if (sobs_.quarantines) sobs_.quarantines->add();
  if (sobs_.shards_quarantined) {
    std::int64_t n = 0;
    for (bool q : quarantined_) n += q ? 1 : 0;
    sobs_.shards_quarantined->set(n);
  }
}

void Runner::on_death(std::size_t shard) {
  Slot& slot = slots_[shard];
  release_slot(slot);
  hb_.clear(shard);
  ++slot.consecutive_deaths;
  ++report_.worker_deaths;
  if (sobs_.deaths) sobs_.deaths->add();
  flight_.record(
      "worker_death", round_, shard,
      "consecutive " + std::to_string(slot.consecutive_deaths));
  if (slot.consecutive_deaths >= config_.quarantine_after) {
    // Workers keep dying on this shard (a poisoned case crashing the child,
    // a broken worker binary, resource exhaustion): stop burning respawns.
    quarantine(shard, "after " + std::to_string(slot.consecutive_deaths) +
                          " consecutive deaths");
    return;
  }
  slot.health = WorkerHealth::kDegraded;
  const std::string key = "shard:" + std::to_string(shard);
  slot.respawn_at =
      Clock::now() + std::chrono::milliseconds(restart_.backoff_ms(
                         slot.consecutive_deaths - 1, key));
}

WorkerOptions Runner::shard_ask(std::size_t round, std::size_t shard) const {
  WorkerOptions ask;
  ask.config_sig = store_.config_sig;
  ask.round = round;
  ask.shard = shard;
  ask.shards = shards();
  ask.export_metrics = fleet_->enabled();
  ask.export_trace = config_.obs.trace != nullptr;
  return ask;
}

campaign::ShardResult Runner::run_inline(std::size_t round,
                                         const campaign::RoundPlan& plan,
                                         std::size_t shard) {
  // Inline execution is a worker's run_shard, so /metrics totals match
  // between sharded and --in-process runs and every absorbed snapshot keeps
  // exactly-once semantics.  Published durably like a worker's, so a
  // supervisor crash right after an inline run still resumes without
  // re-observing this shard.
  campaign::ShardResult result;
  run_shard(config_.campaign, shard_ask(round, shard), chain_, plan, &result);
  return result;
}

void Runner::accumulate_stats(const campaign::ShardResult& result) {
  cum_faulted_ += result.faulted_attempts;
  cum_retry_ += result.retry_attempts;
  cum_recovered_ += result.recovered_cases;
  cum_quarantined_cases_ += result.quarantined_cases;
}

void Runner::absorb_obs(const campaign::ShardResult& result) {
  // The single cross-process merge point: only adopted (durable, header-
  // validated) results get here, so worker observability is absorbed
  // exactly once per unit of completed work — partial counts from killed
  // workers never existed on disk.
  if (fleet_->enabled()) fleet_->absorb(result.shard, result.metrics);
  if (config_.obs.trace != nullptr && !result.trace.empty()) {
    const std::uint32_t pid = result.trace_pid != 0
                                  ? result.trace_pid
                                  : 900000u + static_cast<std::uint32_t>(
                                                  result.shard);
    config_.obs.trace->import_process(
        pid, "worker shard " + std::to_string(result.shard), result.trace);
  }
}

void Runner::update_health_gauge() {
  if (!sobs_.workers_healthy) return;
  std::int64_t n = 0;
  for (const Slot& slot : slots_) {
    n += slot.health == WorkerHealth::kHealthy ? 1 : 0;
  }
  sobs_.workers_healthy->set(n);
}

bool Runner::execute_round_sharded(
    std::size_t round, const campaign::RoundPlan& plan,
    std::vector<campaign::ShardResult>* results) {
  const std::size_t n = shards();
  std::vector<std::optional<campaign::ShardResult>> done(n);
  slots_.assign(n, Slot{});
  for (std::size_t k = 0; k < n; ++k) {
    if (quarantined_[k]) slots_[k].health = WorkerHealth::kQuarantined;
  }
  executing_ = true;

  for (std::size_t k = 0; k < n; ++k) {
    // Crash-resume: adopt a valid leftover result from a previous
    // supervisor generation of this very round (header-validated).
    campaign::ShardResult leftover;
    if (campaign::load_shard_result(config_.campaign.state_dir, round, k, n,
                                    store_.config_sig, &leftover)) {
      accumulate_stats(leftover);
      absorb_obs(leftover);
      flight_.record("reuse_result", round, k,
                     "leftover shard result adopted");
      done[k] = std::move(leftover);
      slots_[k].done = true;
      ++report_.reused_shard_results;
      continue;
    }
    // A shard that owns no cases this round needs no worker at all.
    if (campaign::shard_indices(plan.cases, k, n).empty()) {
      campaign::ShardResult empty;
      empty.round = round;
      empty.shard = k;
      empty.shards = n;
      empty.config_sig = store_.config_sig;
      done[k] = std::move(empty);
      slots_[k].done = true;
    }
  }

  // No worker binary = in-process mode: every shard runs inline.  Also the
  // fallback once a shard is quarantined.
  const bool inline_only = config_.worker_binary.empty();

  const auto heartbeat =
      std::chrono::milliseconds(config_.heartbeat_interval_ms);
  int poll_ms = config_.heartbeat_interval_ms / 4;
  if (poll_ms < 1) poll_ms = 1;
  if (poll_ms > 10) poll_ms = 10;

  while (true) {
    bool all_done = true;
    for (std::size_t k = 0; k < n; ++k) all_done = all_done && slots_[k].done;
    if (all_done) break;

    TimePoint now = Clock::now();

    for (std::size_t k = 0; k < n; ++k) {
      Slot& slot = slots_[k];
      if (slot.done) continue;

      // Quarantined (or worker-less) shards run inline right here; the
      // control plane stalls for the duration, which is the accepted cost
      // of an already-degraded configuration.
      if (inline_only || slot.health == WorkerHealth::kQuarantined) {
        campaign::ShardResult result = run_inline(round, plan, k);
        accumulate_stats(result);
        absorb_obs(result);
        done[k] = std::move(result);
        slot.done = true;
        continue;
      }

      if (slot.health == WorkerHealth::kIdle) {
        if (!spawn_worker(round, plan, k)) on_death(k);
        continue;
      }
      if (slot.health == WorkerHealth::kDegraded && now >= slot.respawn_at) {
        if (spawn_worker(round, plan, k)) {
          ++report_.worker_restarts;
          if (sobs_.restarts) sobs_.restarts->add();
          flight_.record("restart", round, k,
                         "attempt " + std::to_string(slot.consecutive_deaths));
        } else {
          on_death(k);
        }
        continue;
      }
    }

    // Delayed chaos actions come due here; zero-delay ones already fired
    // inside spawn_worker.
    inject_chaos(round);

    pump(poll_ms);
    now = Clock::now();

    // Heartbeats: any byte is liveness; 'D' additionally means the result
    // is on disk (the reap below confirms it).
    for (std::size_t k = 0; k < n; ++k) {
      Slot& slot = slots_[k];
      if (slot.pipe_fd < 0) continue;
      char buf[256];
      while (true) {
        const ssize_t got = ::read(slot.pipe_fd, buf, sizeof buf);
        if (got > 0) {
          slot.last_beat = now;
          hb_.beat(k);
          if (slot.health == WorkerHealth::kSpawned) {
            slot.health = WorkerHealth::kHealthy;
          }
          if (sobs_.heartbeats) {
            sobs_.heartbeats->add(static_cast<std::uint64_t>(got));
          }
          continue;
        }
        break;  // EAGAIN (no data), EOF, or error: reap below decides
      }
    }

    // Reap exits.
    for (std::size_t k = 0; k < n; ++k) {
      Slot& slot = slots_[k];
      if (slot.pid <= 0) continue;
      int status = 0;
      const pid_t reaped = ::waitpid(slot.pid, &status, WNOHANG);
      if (reaped != slot.pid) continue;
      slot.pid = -1;  // reaped; release_slot must not wait again
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        campaign::ShardResult result;
        if (campaign::load_shard_result(config_.campaign.state_dir, round, k,
                                        n, store_.config_sig, &result)) {
          accumulate_stats(result);
          absorb_obs(result);
          done[k] = std::move(result);
          slot.done = true;
          slot.consecutive_deaths = 0;
          slot.health = WorkerHealth::kIdle;
          hb_.clear(k);
          release_slot(slot);
          continue;
        }
        // Exit 0 without a loadable result is a protocol violation —
        // treated exactly like a crash.
      }
      on_death(k);
    }

    // Hang detection: a live worker silent for two intervals (SIGSTOPped,
    // deadlocked, or wedged in a syscall) is killed; the reap above turns
    // that into the ordinary death path next pass.
    for (std::size_t k = 0; k < n; ++k) {
      Slot& slot = slots_[k];
      if (slot.pid <= 0 || slot.kill_sent) continue;
      if (slot.health != WorkerHealth::kSpawned &&
          slot.health != WorkerHealth::kHealthy) {
        continue;
      }
      if (now - slot.last_beat > 2 * heartbeat) {
        slot.kill_sent = true;
        ++report_.worker_hangs;
        if (sobs_.hangs) sobs_.hangs->add();
        flight_.record("hang_kill", round, k, "silent 2x heartbeat");
        ::kill(slot.pid, SIGKILL);
      }
    }

    update_health_gauge();
    hb_.publish();
  }

  executing_ = false;
  update_health_gauge();
  results->clear();
  results->reserve(n);
  for (std::size_t k = 0; k < n; ++k) results->push_back(std::move(*done[k]));
  return true;
}

ServeReport Runner::run() {
  if (!campaign::open_campaign(store_, config_.campaign, &report_.resumed,
                               &report_.error)) {
    return report_;
  }
  ready_ = true;
  flight_.record(report_.resumed ? "resume" : "start", store_.rounds_completed,
                 FlightEvent::kNone,
                 std::to_string(shards()) + " shards, target " +
                     std::to_string(config_.campaign.rounds + 1) + " rounds");

  const std::size_t total_rounds = config_.campaign.rounds + 1;
  while (store_.rounds_completed < total_rounds) {
    if (drain_requested()) {
      report_.drained = true;
      if (!drain_recorded_) {
        drain_recorded_ = true;
        flight_.record("drain", store_.rounds_completed);
      }
      break;
    }
    const std::size_t round = store_.rounds_completed;
    round_ = round;
    if (sobs_.round) sobs_.round->set(static_cast<std::int64_t>(round));

    obs::Span round_span(config_.obs.trace, "serve:round", "serve");
    if (config_.obs.trace) round_span.arg("round", std::to_string(round));

    campaign::RoundPlan plan =
        campaign::plan_round(store_, config_.campaign, round);
    std::vector<campaign::ShardResult> results;
    if (!execute_round_sharded(round, plan, &results)) return report_;

    std::vector<campaign::CaseOutcome> outcomes;
    std::size_t missing = 0;
    if (!campaign::merge_shard_outcomes(results, plan.cases.size(), &outcomes,
                                        &missing)) {
      report_.error = "shard merge hole: planned case " +
                      std::to_string(missing) +
                      " of round " + std::to_string(round) +
                      " was executed by no shard";
      return report_;
    }

    // Minimizer caches live for one round, like a shard's: a daemon's cache
    // memory stays bounded, and their teardown is paid inside the round.
    campaign::RoundReport rr;
    {
      core::ObservationMemo memo;
      net::VerdictCache verdicts;
      rr = campaign::integrate_round(store_, config_.campaign, round,
                                     plan.cases, outcomes, chain_, &memo,
                                     &verdicts);
    }
    rr.replayed = plan.replayed;
    campaign::emit_round_metrics(config_.campaign.obs, rr, store_);
    if (sobs_.rounds) sobs_.rounds->add();
    cum_cases_ += rr.cases;
    cum_novel_ += rr.novel;
    cum_duplicate_ += rr.duplicate;

    if (!store_.commit_round(round)) {
      report_.error = store_.error();
      return report_;
    }
    ++report_.rounds_run;
    flight_.record("round_commit", round, FlightEvent::kNone,
                   "cases=" + std::to_string(rr.cases) +
                       " novel=" + std::to_string(rr.novel) +
                       " findings=" + std::to_string(store_.findings.size()) +
                       " corpus=" + std::to_string(store_.entries.size()));

    // The committed checkpoint supersedes this round's shard results; a
    // leftover would be rejected next round anyway (header round), removing
    // them just keeps the state dir from accreting.
    std::error_code ec;
    for (std::size_t k = 0; k < shards(); ++k) {
      std::filesystem::remove(
          campaign::shard_result_path(config_.campaign.state_dir, round, k),
          ec);
    }

    pump(0);  // keep the control plane fresh between rounds
  }

  if (drain_requested()) {
    report_.drained = true;
    if (!drain_recorded_) {
      drain_recorded_ = true;
      flight_.record("drain", store_.rounds_completed);
    }
  }
  report_.total_findings = store_.findings.size();
  report_.corpus_entries = store_.entries.size();

  // Flush the control plane before exiting: the stop/status response that
  // *triggered* a drain may still be queued on its connection, and tearing
  // the loop down now would reset the client that asked us to stop.
  // Bounded — a stalled client cannot hold the exit hostage.
  const TimePoint flush_deadline =
      Clock::now() + std::chrono::milliseconds(250);
  while (serve_loop_.open_connections() > 0 &&
         Clock::now() < flush_deadline) {
    pump(5);
  }
  return report_;
}

}  // namespace

std::string_view to_string(WorkerHealth health) noexcept {
  switch (health) {
    case WorkerHealth::kIdle: return "idle";
    case WorkerHealth::kSpawned: return "spawned";
    case WorkerHealth::kHealthy: return "healthy";
    case WorkerHealth::kDegraded: return "degraded";
    case WorkerHealth::kQuarantined: return "quarantined";
  }
  return "idle";
}

Supervisor::Supervisor(
    ServeConfig config,
    const std::vector<std::unique_ptr<impls::HttpImplementation>>& fleet)
    : config_(std::move(config)),
      fleet_(fleet),
      listener_(config_.port, config_.bind_retry) {}

ServeReport Supervisor::run() {
  Runner runner(config_, fleet_, listener_);
  return runner.run();
}

}  // namespace hdiff::serve
