#include "serve/worker.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "campaign/store.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hdiff::serve {

namespace {

/// Writes one byte every `interval_ms/2` to the inherited pipe until
/// stopped.  EPIPE (supervisor died) silently stops beating — the worker
/// finishes its shard anyway; the result file is still useful to the next
/// supervisor generation.
class Heartbeat {
 public:
  Heartbeat(int fd, int interval_ms) : fd_(fd) {
    if (fd_ < 0) return;
    const auto period =
        std::chrono::milliseconds(interval_ms > 1 ? interval_ms / 2 : 1);
    thread_ = std::thread([this, period] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_) {
        if (!beat('h')) return;
        cv_.wait_for(lock, period, [this] { return stop_; });
      }
    });
  }

  ~Heartbeat() {
    if (fd_ < 0) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Final liveness byte once the result is durably published.
  void done() { beat('D'); }

 private:
  bool beat(char c) {
    if (fd_ < 0) return false;
    while (true) {
      const ssize_t n = ::write(fd_, &c, 1);
      if (n == 1) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;  // EPIPE / supervisor gone
    }
  }

  int fd_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace

int run_worker(
    const WorkerOptions& options,
    const std::vector<std::unique_ptr<impls::HttpImplementation>>& fleet) {
  Heartbeat heartbeat(options.heartbeat_fd, options.heartbeat_interval_ms);

  campaign::StateStore store(options.config.state_dir);
  if (!store.exists() || !store.load_readonly()) return kWorkerStateError;
  // The plan is only shared when worker and supervisor hold the same
  // committed checkpoint AND built it from the same config.  A mismatch is
  // a stale ask (supervisor committed while this worker was queued, or the
  // daemon was restarted with different flags): report it as such so the
  // supervisor runs the shard itself instead of respawning a doomed worker.
  // Round 0 plans from the bootstrap, so it also proves the bootstrap it
  // built; later rounds plan only from what the mutation signature covers.
  if (store.config_sig != options.config_sig ||
      campaign::campaign_mutation_sig(options.config) !=
          options.mutation_sig ||
      store.rounds_completed != options.round ||
      (options.round == 0 &&
       store.config_sig != campaign::campaign_config_sig(options.config))) {
    return kWorkerStale;
  }

  const campaign::RoundPlan plan =
      campaign::plan_round(store, options.config, options.round);
  campaign::ShardResult result;
  if (!run_shard(options, net::Chain::from_fleet(fleet), plan, &result)) {
    return kWorkerStateError;
  }
  heartbeat.done();
  return kWorkerOk;
}

bool run_shard(WorkerOptions ask, const net::Chain& chain,
               const campaign::RoundPlan& plan, campaign::ShardResult* out) {
  const std::vector<std::size_t> mine =
      campaign::shard_indices(plan.cases, ask.shard, ask.shards);
  // Shard-local observability: instruments live only for this run and cross
  // back to the supervisor only inside the durable shard result, so the
  // counts the fleet registry absorbs are exactly the counts that produced
  // the published outcomes.
  obs::Registry registry;
  obs::TraceSink sink(ask.config.obs.clock);
  campaign::CampaignConfig& config = ask.config;
  config.obs.metrics = ask.export_metrics ? &registry : nullptr;
  config.obs.trace = ask.export_trace ? &sink : nullptr;
  // Fresh caches scoped to this (round, shard), so an inline run observes
  // exactly what a worker process would.
  core::ObservationMemo memo;
  net::VerdictCache verdicts;
  campaign::ExecutedRound executed;
  {
    obs::Span span(config.obs.trace, "worker:execute_round", "serve");
    span.arg("shard", std::to_string(ask.shard) + "/" +
                          std::to_string(ask.shards) + " round " +
                          std::to_string(ask.round));
    executed = campaign::execute_round(config, chain, plan.cases, &memo,
                                       &verdicts, &mine);
  }

  campaign::ShardResult& result = *out;
  result = {};
  result.round = ask.round;
  result.shard = ask.shard;
  result.shards = ask.shards;
  result.config_sig = ask.config_sig;
  result.faulted_attempts = executed.stats.faulted_attempts;
  result.retry_attempts = executed.stats.retry_attempts;
  result.recovered_cases = executed.stats.recovered_cases;
  result.quarantined_cases = executed.stats.quarantined_cases;
  for (std::size_t index : mine) {
    result.outcomes.emplace(index, executed.outcomes[index]);
  }
  // Snapshot after the executor has joined its workers (execute_round
  // returns post-join), satisfying the registry/sink quiescence contract.
  if (ask.export_metrics) result.metrics = registry.snapshot();
  if (ask.export_trace) {
    result.trace_pid = static_cast<std::uint32_t>(::getpid());
    result.trace = sink.export_events();
  }
  return campaign::write_shard_result(config.state_dir, result);
}

}  // namespace hdiff::serve
