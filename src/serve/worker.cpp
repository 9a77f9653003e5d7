#include "serve/worker.h"

#include <fcntl.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hdiff::serve {

namespace {

/// SIGALRM handler: one 'h' on the heartbeat pipe (fd 3), nothing else.  A
/// full pipe (EAGAIN) or a dead supervisor (EPIPE) only skips the beat; the
/// worker finishes its shard anyway, since the result file is still useful
/// to the next supervisor generation.
void beat(int) {
  const int saved = errno;
  const char h = 'h';
  [[maybe_unused]] const ssize_t n = ::write(3, &h, 1);
  errno = saved;
}

/// Beat every `interval_ms/2` from a timer (0 stops it).
void set_heartbeat_timer(int interval_ms) {
  const int period_ms = interval_ms > 1 ? interval_ms / 2 : interval_ms;
  itimerval timer{};
  timer.it_interval.tv_sec = period_ms / 1000;
  timer.it_interval.tv_usec = (period_ms % 1000) * 1000;
  timer.it_value = timer.it_interval;
  ::setitimer(ITIMER_REAL, &timer, nullptr);
}

}  // namespace

void keep_worker_fds(int heartbeat_fd) {
  if (heartbeat_fd != 3) ::dup2(heartbeat_fd, 3);
  ::fcntl(3, F_SETFL, O_NONBLOCK);
  ::closefrom(4);
}

void worker_main(const campaign::CampaignConfig& campaign,
                 const WorkerOptions& ask, const net::Chain& chain,
                 const campaign::RoundPlan& plan) {
  int code = 1;
  try {
    keep_worker_fds(ask.heartbeat_fd);
    // The supervisor's drain handlers do not apply here: SIGTERM/SIGINT end
    // a worker.  A supervisor that dies while we beat must not kill the
    // worker mid-shard.
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGPIPE, SIG_IGN);
    struct sigaction action {};
    action.sa_handler = beat;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGALRM, &action, nullptr);
    beat(SIGALRM);
    set_heartbeat_timer(ask.heartbeat_interval_ms);

    campaign::ShardResult result;
    if (run_shard(campaign, ask, chain, plan, &result)) {
      set_heartbeat_timer(0);
      const char done = 'D';
      [[maybe_unused]] const ssize_t n = ::write(3, &done, 1);
      code = 0;
    }
  } catch (...) {
    // Unwinding further would run the supervisor's own frames in the child.
  }
  ::_exit(code);
}

bool run_shard(const campaign::CampaignConfig& campaign,
               const WorkerOptions& ask, const net::Chain& chain,
               const campaign::RoundPlan& plan, campaign::ShardResult* out) {
  const std::vector<std::size_t> mine =
      campaign::shard_indices(plan.cases, ask.shard, ask.shards);
  // Shard-local observability: instruments live only for this run and cross
  // back to the supervisor only inside the durable shard result, so the
  // counts the fleet registry absorbs are exactly the counts that produced
  // the published outcomes.
  obs::Registry registry;
  obs::TraceSink sink(campaign.obs.clock);
  // execute_round reads only the executor and observability settings, so
  // the shard copies those and not the bootstrap corpus or coverage plan,
  // which would take a forked worker about as long to copy as its shard
  // takes to execute.
  campaign::CampaignConfig config;
  config.executor = campaign.executor;
  config.obs = campaign.obs;
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
  return campaign::write_shard_result(campaign.state_dir, result);
}

}  // namespace hdiff::serve
