// The `hdiff serve` supervisor: a crash-tolerant campaign daemon that
// multiplexes one campaign over sharded worker OS processes.
//
// Execution model — round lockstep with a merge barrier.  Each round the
// supervisor computes the plan (a pure function of the committed checkpoint
// and the config), forks one worker per shard, and waits for every shard's
// durable result file.  A forked worker inherits the plan, the chain and the
// config, so it loads and plans nothing and never touches the master
// checkpoint: it executes only the case indices its shard owns (shard.h
// assignment is content-hashed, coordination-free) and publishes outcomes
// via tmp+fsync+rename (worker.h).  The supervisor alone merges outcomes in
// stable case order and performs all integration — fingerprinting, dedup,
// minimization, corpus growth — exactly as the single-process engine does,
// then commits.  Findings are therefore byte-identical to `--jobs 1` no
// matter how many workers crashed along the way.
//
// Failure handling — the supervisor is a state machine per worker slot:
//
//   kIdle -> kSpawned -> kHealthy -> (exit 0 + valid result) -> kIdle
//                 |          |
//                 +----------+--> death / hang --> kDegraded
//                                      |   restart with RetryPolicy backoff
//                                      |   (deterministic jitter, capped
//                                      |    below the heartbeat interval)
//                                      v
//                            K consecutive deaths --> kQuarantined
//                                      (shard runs inline in the supervisor)
//
// Liveness is a pipe heartbeat ('h' every interval/2 from a worker-side
// interval timer); a slot silent for two intervals is declared hung and
// SIGKILLed.
// /healthz degrades (503) only while some executing slot sits in kDegraded
// — a quarantined shard is a *handled* failure and keeps the daemon ready.
//
// Crash tolerance end to end: a worker SIGKILL loses at most its unpublished
// shard-round; a supervisor kill loses at most the uncommitted round, and
// valid leftover shard results (validated by round/split/config-sig header)
// are reused on restart, so nothing is observed twice and nothing is lost.
// Graceful drain (SIGTERM/SIGINT or POST /campaigns/:id/stop) finishes the
// in-flight round, commits, and exits 0 with a checkpoint any `campaign
// resume` or next `serve` picks up.
#pragma once

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/engine.h"
#include "impls/model.h"
#include "net/error.h"
#include "net/tcp.h"
#include "obs/obs.h"
#include "serve/control.h"
#include "serve/introspect.h"

namespace hdiff::serve {

/// Deterministic fault injection for tests: on `round`, `delay_ms` after
/// `shard`'s worker is first spawned, the supervisor signals it.  kKill
/// (SIGKILL) simulates a crash; kStop (SIGSTOP) freezes the process so its
/// heartbeats stop — the hang-detection path — and the supervisor's
/// follow-up SIGKILL reaps it.  Each action fires once, and a spawn takes at
/// most one action, so N actions on one (round, shard) hit N spawns.
struct ChaosAction {
  enum class Kind { kKill, kStop };
  std::size_t round = 0;
  std::size_t shard = 0;
  Kind kind = Kind::kKill;
  int delay_ms = 20;
};

struct ServeConfig {
  /// The campaign to run; `campaign.rounds` is the commit target (the
  /// daemon exits 0 once `rounds + 1` total rounds are committed).
  campaign::CampaignConfig campaign;
  /// Campaign id on the control plane (POST /campaigns/<id>/stop).
  std::string campaign_id = "default";
  std::size_t shards = 4;
  /// Control-plane port; 0 binds an ephemeral port.  Fixed ports are
  /// acquired with `bind_retry` (EADDRINUSE from a dying predecessor).
  std::uint16_t port = 0;
  net::RetryPolicy bind_retry{};
  /// Heartbeat interval H: workers beat every H/2; a slot silent for 2H is
  /// hung; restart backoff is capped at H/2 so a crashed worker is back
  /// within one interval.
  int heartbeat_interval_ms = 200;
  /// Consecutive deaths (of one shard within one round) before the shard is
  /// quarantined and executed inline by the supervisor.
  int quarantine_after = 3;
  /// Backoff schedule between respawns of a dying worker (attempts field
  /// is unused; quarantine_after bounds the retries).
  net::RetryPolicy restart{.backoff_base_ms = 2, .backoff_max_ms = 50};
  /// Empty runs every shard inline in the supervisor (`--in-process`);
  /// anything else runs shards in workers forked from the supervisor.  The
  /// value itself is not read, and neither is `worker_args`: both stay only
  /// because existing callers (the end-to-end benchmark) still set them.
  std::string worker_binary;
  std::vector<std::string> worker_args;
  /// Signal-handler drain flag (SIGTERM/SIGINT): when it becomes nonzero
  /// the supervisor finishes the current round, commits and exits 0.
  const volatile std::sig_atomic_t* drain_flag = nullptr;
  std::vector<ChaosAction> chaos;
  obs::Observability obs;
  /// Fleet-wide metrics merge target (introspect.h).  When set, worker
  /// registry snapshots (shipped inside shard results) are absorbed here
  /// and /metrics serves the origin-labeled merged exposition; the caller
  /// owns it so `--metrics-out` can render after run() returns.  When
  /// null but `obs.metrics` is set, the supervisor uses an internal one
  /// (merged totals on /metrics, nothing to dump afterwards).
  FleetMetrics* fleet = nullptr;
  /// Flight-recorder ring size (lifecycle events kept in memory and
  /// replayed on GET /events; the ring persists in the state dir).
  std::size_t flight_capacity = 1024;
};

/// One worker slot's lifecycle state, surfaced on /status.
enum class WorkerHealth {
  kIdle,         ///< shard finished (or round not started)
  kSpawned,      ///< forked, no heartbeat seen yet
  kHealthy,      ///< heartbeating
  kDegraded,     ///< died/hung; respawn pending (drives /healthz 503)
  kQuarantined,  ///< gave up on workers; supervisor runs the shard inline
};

std::string_view to_string(WorkerHealth health) noexcept;

struct ServeReport {
  std::string error;
  std::size_t rounds_run = 0;  ///< rounds committed by this call
  std::size_t worker_spawns = 0;
  std::size_t worker_deaths = 0;    ///< crashes + hangs, pre-quarantine
  std::size_t worker_hangs = 0;     ///< SIGKILLed for missed heartbeats
  std::size_t worker_restarts = 0;
  std::size_t quarantined_shards = 0;
  std::size_t reused_shard_results = 0;  ///< leftovers adopted on resume
  std::size_t total_findings = 0;
  std::size_t corpus_entries = 0;
  bool resumed = false;
  bool drained = false;  ///< stopped by drain/stop, not rounds exhausted
};

/// The daemon.  Constructing binds the control-plane listener (throws
/// net::ChainFault when the port cannot be acquired); `run()` blocks until
/// the round target is reached, a drain is requested, or a fatal state
/// error occurs.  Single-threaded: the control plane is pumped from the
/// supervision loop between heartbeat reads and waitpid sweeps, and the
/// loop's poll also wakes on the workers' heartbeat pipes.
class Supervisor {
 public:
  Supervisor(
      ServeConfig config,
      const std::vector<std::unique_ptr<impls::HttpImplementation>>& fleet);

  std::uint16_t port() const noexcept { return listener_.port(); }

  ServeReport run();

 private:
  ServeConfig config_;
  const std::vector<std::unique_ptr<impls::HttpImplementation>>& fleet_;
  net::TcpListener listener_;
};

}  // namespace hdiff::serve
