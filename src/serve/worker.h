// The worker half of `hdiff serve`: one process, one shard, one round.
//
// A worker is deliberately stateless between invocations — it loads the
// supervisor's committed checkpoint read-only (no lock, no heal), recomputes
// the round plan from that checkpoint plus a config the supervisor vouches
// for (planning is a pure function of checkpoint + config, so every worker
// and the supervisor agree on the case list without any coordination),
// executes only the case indices its shard owns, and
// publishes the outcomes as a durable shard result file (shard.h).  Being
// killable at any instant is the design center: a SIGKILL loses at most the
// not-yet-published work of this shard's current round, which the
// supervisor simply re-runs.
//
// Only round 0 plans from the bootstrap corpus, so only a round-0 worker
// builds it (the full RFC analysis and generation, most of a worker's set-up
// otherwise).  A later round checks the ask against two signatures the
// supervisor passes instead: the checkpoint's full config signature, and
// campaign_mutation_sig, which its own flags must reproduce.
//
// Liveness is reported over an inherited pipe: a detached-duty heartbeat
// thread writes one 'h' byte every interval/2 for as long as the process
// makes progress, and the main thread writes 'D' once the result file is
// durably published.  A supervisor that stops seeing bytes knows the worker
// is hung (not merely slow — the thread beats independently of case
// execution) and may SIGKILL it.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "campaign/engine.h"
#include "campaign/shard.h"
#include "impls/model.h"
#include "net/chain.h"

namespace hdiff::serve {

/// Worker process exit codes, part of the supervisor/worker contract.
/// kWorkerStale quarantines the shard at once (a respawn would get the same
/// doomed ask), so it shares no code with a `serve-worker` usage error (2).
/// Anything else (signals included) is a death the supervisor retries.
enum WorkerExit : int {
  kWorkerOk = 0,          ///< result file durably published
  kWorkerStateError = 3,  ///< cannot load checkpoint or publish the result
  kWorkerStale = 4,       ///< checkpoint round/config does not match the ask
};

struct WorkerOptions {
  /// Campaign config rebuilt from the worker's flags.  Its bootstrap is
  /// read (and must be set) only in round 0.
  campaign::CampaignConfig config;
  /// The supervisor's campaign_config_sig, which the checkpoint must carry.
  std::string config_sig;
  /// The supervisor's campaign_mutation_sig, which `config` must reproduce.
  std::string mutation_sig;
  std::size_t shard = 0;
  std::size_t shards = 1;
  std::size_t round = 0;
  /// Inherited heartbeat pipe write end; -1 disables heartbeating.
  int heartbeat_fd = -1;
  /// Supervisor's heartbeat interval; the worker beats at interval/2.
  int heartbeat_interval_ms = 200;
  /// Cross-process observability export: when set, the worker collects its
  /// own metrics registry / trace-span buffer during execution and ships a
  /// snapshot inside the shard result for the supervisor to absorb.
  /// Mirrors whether the supervisor itself runs with metrics/trace enabled
  /// (it appends the matching --export-* flags when spawning).
  bool export_metrics = false;
  bool export_trace = false;
};

/// Execute the cases of `plan` that `ask.shard` owns, with fresh observation
/// caches, and publish them durably as the shard's result for `ask.round`
/// (signed with `ask.config_sig`).  The export flags ship this run's own
/// metrics snapshot and trace spans inside the result.  A worker process and
/// the supervisor's inline fallback both run a shard through here.  False
/// when the result cannot be published; `*out` holds it either way.
bool run_shard(WorkerOptions ask, const net::Chain& chain,
               const campaign::RoundPlan& plan, campaign::ShardResult* out);

/// Run one shard of one round to completion.  Returns a WorkerExit code.
int run_worker(
    const WorkerOptions& options,
    const std::vector<std::unique_ptr<impls::HttpImplementation>>& fleet);

}  // namespace hdiff::serve
