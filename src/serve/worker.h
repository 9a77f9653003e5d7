// The worker half of `hdiff serve`: one forked process, one shard, one round.
//
// The supervisor plans each round itself and forks one child per shard.  The
// child already holds the chain, the config and the round's RoundPlan, so it
// loads nothing and plans nothing: it keeps only stdio and its heartbeat
// pipe, executes the case indices its shard owns (shard.h assignment is
// content-hashed, coordination-free), publishes the outcomes as a durable
// shard result file (shard.h) and leaves with _exit.  Being killable at any
// instant is the design center: a SIGKILL loses at most the not-yet-published
// work of this shard's current round, which the supervisor simply re-runs.
//
// Liveness is reported over the pipe on fd 3: an interval timer's SIGALRM
// handler writes one 'h' byte every interval/2 for as long as the process
// runs, and the worker writes 'D' once the result file is durably published.
// A supervisor that stops seeing bytes knows the worker is hung (stopped or
// wedged, not merely slow — the timer beats independently of case
// execution) and may SIGKILL it.  A timer, not a thread: a child forked from
// a multi-threaded process must not start threads of its own.
#pragma once

#include <cstddef>
#include <string>

#include "campaign/engine.h"
#include "campaign/shard.h"
#include "net/chain.h"

namespace hdiff::serve {

/// Which shard of which round a worker runs, and how it reports.
struct WorkerOptions {
  /// The checkpoint's campaign_config_sig, which signs the shard result.
  std::string config_sig;
  std::size_t shard = 0;
  std::size_t shards = 1;
  std::size_t round = 0;
  /// A forked worker's heartbeat pipe write end (worker_main makes it fd 3).
  int heartbeat_fd = -1;
  /// Supervisor's heartbeat interval; a forked worker beats at interval/2.
  int heartbeat_interval_ms = 200;
  /// Cross-process observability export: when set, the shard collects its
  /// own metrics registry / trace-span buffer during execution and ships a
  /// snapshot inside the shard result for the supervisor to absorb.
  /// Mirrors whether the supervisor itself runs with metrics/trace enabled.
  bool export_metrics = false;
  bool export_trace = false;
};

/// Execute the cases of `plan` that `ask.shard` owns, with fresh observation
/// caches and `campaign`'s executor settings, and publish them durably in
/// `campaign.state_dir` as the shard's result for `ask.round` (signed with
/// `ask.config_sig`).  The export flags ship this run's own metrics snapshot
/// and trace spans inside the result.  A forked worker and the supervisor's
/// inline fallback both run a shard through here.  False when the result
/// cannot be published; `*out` holds it either way.
bool run_shard(const campaign::CampaignConfig& campaign,
               const WorkerOptions& ask, const net::Chain& chain,
               const campaign::RoundPlan& plan, campaign::ShardResult* out);

/// A freshly forked worker's fd hygiene: `heartbeat_fd` becomes fd 3
/// (nonblocking) and every fd above it is closed, so the worker keeps stdio
/// and its heartbeat pipe and nothing else — not the control listener, an
/// open control connection or the flight log.
void keep_worker_fds(int heartbeat_fd);

/// The whole life of a forked worker: keep_worker_fds, default SIGTERM and
/// SIGINT, ignored SIGPIPE, the heartbeat timer, run_shard, then 'D' and
/// _exit(0) once the result is published (_exit(1) when it is not).  Never
/// returns, so no atexit handler runs and no inherited stdio buffer is
/// flushed a second time.
[[noreturn]] void worker_main(const campaign::CampaignConfig& campaign,
                              const WorkerOptions& ask,
                              const net::Chain& chain,
                              const campaign::RoundPlan& plan);

}  // namespace hdiff::serve
