#include "core/executor.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>

namespace hdiff::core {

namespace {

/// Memo key of a stream case: every message length-prefixed, so the key
/// records where each message ends and not just the concatenated bytes.
std::string stream_memo_key(const std::vector<std::string>& messages) {
  std::string key;
  for (const std::string& m : messages) {
    key += std::to_string(m.size());
    key += ':';
    key += m;
  }
  return key;
}

}  // namespace

template <class Obs>
const Obs* ObservationMemo::find_as(std::string_view key) {
  const std::uint64_t hash = hasher_(key);
  Shard& shard = shard_for(hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.buckets.find(hash);
  if (it != shard.buckets.end()) {
    for (const Entry& entry : it->second) {
      // Kind plus full-byte confirm: collisions cannot alias.
      const auto* held = std::get_if<std::unique_ptr<Obs>>(&entry.obs);
      if (held != nullptr && entry.key == key) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return held->get();
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

template <class Obs>
const Obs* ObservationMemo::insert_as(std::string key, Obs obs) {
  const std::uint64_t hash = hasher_(key);
  Shard& shard = shard_for(hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::vector<Entry>& bucket = shard.buckets[hash];
  for (const Entry& entry : bucket) {
    const auto* held = std::get_if<std::unique_ptr<Obs>>(&entry.obs);
    // A racing worker won: keep its (identical) entry.
    if (held != nullptr && entry.key == key) return held->get();
  }
  auto stored = std::make_unique<Obs>(std::move(obs));
  const Obs* out = stored.get();
  bytes_.fetch_add(key.size(), std::memory_order_relaxed);
  bucket.push_back(Entry{std::move(key), std::move(stored)});
  return out;
}

const net::ChainObservation* ObservationMemo::find(std::string_view raw) {
  return find_as<net::ChainObservation>(raw);
}

const net::ChainObservation* ObservationMemo::insert(std::string_view raw,
                                                     net::ChainObservation obs) {
  return insert_as(std::string(raw), std::move(obs));
}

const StreamDetectionResult* ObservationMemo::find_stream(
    const std::vector<std::string>& messages) {
  return find_as<StreamDetectionResult>(stream_memo_key(messages));
}

const StreamDetectionResult* ObservationMemo::insert_stream(
    const std::vector<std::string>& messages, StreamDetectionResult result) {
  return insert_as(stream_memo_key(messages), std::move(result));
}

std::size_t ObservationMemo::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [hash, bucket] : shard.buckets) total += bucket.size();
  }
  return total;
}

ParallelExecutor::ParallelExecutor(ExecutorConfig config) : config_(config) {}

std::size_t ParallelExecutor::resolve_jobs(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

DetectionResult ParallelExecutor::run(const net::Chain& chain,
                                      const std::vector<TestCase>& cases,
                                      ExecutorStats* stats) const {
  const std::size_t jobs = resolve_jobs(config_.jobs);
  DetectionEngine engine;  // stateless; shared by all workers
  DetectionResult total;
  ExecutorStats local;
  local.jobs = jobs;
  local.cases = cases.size();

  // Per-run caches, unless the caller supplied longer-lived ones (campaign
  // sessions share a memo across rounds and minimizer replays).
  ObservationMemo own_memo;
  net::VerdictCache own_verdicts;
  ObservationMemo& memo = config_.shared_memo ? *config_.shared_memo : own_memo;
  net::VerdictCache& verdicts =
      config_.shared_verdicts ? *config_.shared_verdicts : own_verdicts;
  ObservationMemo* memo_p = config_.memoize ? &memo : nullptr;
  net::VerdictCache* verdicts_p = config_.memoize ? &verdicts : nullptr;

  // Observability hooks, all null/disabled by default.  Registry name
  // lookups happen here, once per run; workers touch only sharded atomics
  // and their own trace buffers.
  const obs::Observability& ob = config_.obs;
  obs::TraceSink* const trace = ob.trace;
  const obs::Clock& clock = ob.effective_clock();
  const obs::ChainObs chain_obs = obs::ChainObs::from(ob);
  const obs::ChainObs* const track = chain_obs.active() ? &chain_obs : nullptr;
  obs::Histogram* const case_us =
      ob.metrics ? &ob.metrics->histogram("hdiff_executor_case_micros")
                 : nullptr;

  // Per-case fault bookkeeping, written by whichever worker runs the case
  // and folded into the stats in stable case-index order.
  struct CaseStatus {
    bool quarantined = false;
    std::size_t attempts_used = 1;
    std::size_t faulted_attempts = 0;
    std::array<std::size_t, net::kChainErrorCount> fault_counts{};
    net::ChainError last_error = net::ChainError::kNone;
    std::string last_detail;
  };

  const int attempts = std::max(1, config_.retry.attempts);
  const int deadline_ms = config_.retry.case_deadline_ms;

  // Observe through `observe_once(attempt)` until an observation comes back
  // fault-free, retrying with backoff under the case deadline.  Shared by
  // single-request and stream cases; returns nullopt once the case has
  // faulted through its whole retry budget (`status.quarantined` set).
  const auto observe_with_retry = [&](const TestCase& tc, CaseStatus& status,
                                      const auto& observe_once) {
    using Obs = std::decay_t<decltype(observe_once(0))>;
    const auto start = std::chrono::steady_clock::now();
    for (int attempt = 0;; ++attempt) {
      Obs obs = observe_once(attempt);
      status.attempts_used = static_cast<std::size_t>(attempt) + 1;
      if (!obs.faulted()) return std::optional<Obs>(std::move(obs));
      ++status.faulted_attempts;
      ++status.fault_counts[static_cast<std::size_t>(obs.fault)];
      status.last_error = obs.fault;
      status.last_detail = std::move(obs.fault_detail);
      if (trace) {
        trace->instant("fault", "executor", "error",
                       std::string(net::to_string(obs.fault)));
      }
      const auto elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      const bool out_of_time = deadline_ms > 0 && elapsed_ms >= deadline_ms;
      if (attempt + 1 >= attempts || out_of_time) {
        status.quarantined = true;
        if (out_of_time) {
          status.last_detail += " [case deadline exceeded]";
        }
        if (trace) trace->instant("quarantine", "executor", "uuid", tc.uuid);
        return std::optional<Obs>();
      }
      obs::Span backoff(trace, "backoff", "executor");
      std::this_thread::sleep_for(std::chrono::milliseconds(
          config_.retry.backoff_ms(attempt, tc.raw)));
    }
  };

  // Stream cases: observed over one persistent connection per leg and
  // judged by the connection-level detectors.  Their instruments are looked
  // up only when the case list holds a stream, so single-request runs
  // expose no hdiff_stream_* series.
  const bool has_streams =
      std::any_of(cases.begin(), cases.end(),
                  [](const TestCase& tc) { return tc.is_stream(); });
  const obs::StreamObs stream_obs =
      has_streams ? obs::StreamObs::from(ob) : obs::StreamObs{};
  const obs::StreamObs* const strack =
      stream_obs.active() ? &stream_obs : nullptr;
  const StreamDetector stream_detector(chain);
  const auto observe_and_evaluate_stream =
      [&](const TestCase& tc, CaseStatus& status) -> DetectionResult {
    DetectionResult delta;
    if (memo_p) {
      if (const StreamDetectionResult* cached =
              memo_p->find_stream(tc.stream)) {
        StreamDetector::count(*cached, strack);
        delta.streams = cached->findings;
        return delta;
      }
    }
    std::optional<net::StreamObservation> obs =
        observe_with_retry(tc, status, [&](int) {
          return chain.observe_stream(tc.uuid, tc.stream, /*echo=*/nullptr,
                                      verdicts_p, strack);
        });
    if (!obs) return delta;
    StreamDetectionResult judged = stream_detector.evaluate(*obs, strack);
    if (memo_p) memo_p->insert_stream(tc.stream, judged);
    delta.streams = std::move(judged.findings);
    return delta;
  };

  // Observe-and-evaluate for one case.  Memo hits (and freshly inserted
  // entries) are evaluated in place — detection reads only the verdict
  // maps, so no copy or uuid patching is needed.  A faulted observation is
  // retried with backoff; only fault-free observations are cached or
  // evaluated, and a case that faults through its whole retry budget is
  // quarantined (empty delta, `status.quarantined` set).
  const auto observe_and_evaluate =
      [&](const TestCase& tc, net::EchoServer& echo,
          CaseStatus& status) -> DetectionResult {
    if (tc.is_stream()) return observe_and_evaluate_stream(tc, status);
    if (memo_p) {
      // Only successful observations are ever inserted, so a hit is a
      // known-good observation regardless of the fault schedule.
      if (const net::ChainObservation* cached = memo_p->find(tc.raw)) {
        // Keep the echo log faithful: a duplicate case still produces the
        // same forwards on the wire.
        for (const auto& [proxy, v] : cached->proxies) {
          if (v.forwarded()) echo.record(tc.uuid, proxy, v.forwarded_bytes);
        }
        return engine.evaluate(tc, *cached);
      }
    }
    std::optional<net::ChainObservation> obs =
        observe_with_retry(tc, status, [&](int) {
          return chain.observe(tc.uuid, tc.raw, &echo, verdicts_p, track);
        });
    if (!obs) return DetectionResult{};
    if (memo_p) {
      return engine.evaluate(tc, *memo_p->insert(tc.raw, std::move(*obs)));
    }
    return engine.evaluate(tc, *obs);
  };

  // Timing wrapper: one "case" span and one latency sample per test case.
  // With obs disabled this is a transparent pass-through.
  const auto evaluate_case =
      [&](const TestCase& tc, net::EchoServer& echo,
          CaseStatus& status) -> DetectionResult {
    if (!trace && !case_us) return observe_and_evaluate(tc, echo, status);
    const std::uint64_t c0 = clock.now_us();
    DetectionResult delta = observe_and_evaluate(tc, echo, status);
    const std::uint64_t c1 = clock.now_us();
    if (case_us) case_us->observe(c1 - c0);
    if (trace) trace->complete("case", "executor", c0, c1 - c0, "uuid", tc.uuid);
    return delta;
  };

  // Fold one case's fault bookkeeping into the run stats (call in stable
  // case-index order so the quarantine report is deterministic).
  const auto fold_status = [&](const TestCase& tc, CaseStatus& status) {
    local.faulted_attempts += status.faulted_attempts;
    local.retry_attempts += status.attempts_used - 1;
    for (std::size_t k = 0; k < net::kChainErrorCount; ++k) {
      local.fault_counts[k] += status.fault_counts[k];
    }
    if (status.quarantined) {
      local.quarantined.push_back(QuarantinedCase{
          tc.uuid, status.last_error, status.attempts_used,
          std::move(status.last_detail)});
    } else if (status.faulted_attempts > 0) {
      ++local.recovered_cases;
    }
  };

  const auto finish = [&](std::size_t echo_records, std::size_t echo_dropped) {
    local.memo_hits = memo.hits();
    local.memo_misses = memo.misses();
    const net::VerdictCache::Stats vs = verdicts.stats();
    local.verdict_hits = vs.hits;
    local.verdict_misses = vs.misses;
    local.memo_bytes = memo.stored_bytes();
    local.verdict_bytes = vs.bytes;
    local.echo_records = echo_records;
    local.echo_dropped = echo_dropped;
    local.quarantined_cases = local.quarantined.size();
    // Fold run totals into the registry once, after the workers joined —
    // the hot path never touches these names.
    if (ob.metrics) {
      obs::Registry& m = *ob.metrics;
      m.gauge("hdiff_executor_jobs").set(static_cast<std::int64_t>(local.jobs));
      m.counter("hdiff_executor_cases_total").add(local.cases);
      m.counter("hdiff_memo_hits_total").add(local.memo_hits);
      m.counter("hdiff_memo_misses_total").add(local.memo_misses);
      m.counter("hdiff_verdict_hits_total").add(local.verdict_hits);
      m.counter("hdiff_verdict_misses_total").add(local.verdict_misses);
      m.gauge("hdiff_memo_bytes").set(static_cast<std::int64_t>(local.memo_bytes));
      m.gauge("hdiff_verdict_bytes")
          .set(static_cast<std::int64_t>(local.verdict_bytes));
      m.counter("hdiff_echo_records_total").add(local.echo_records);
      m.counter("hdiff_echo_dropped_total").add(local.echo_dropped);
      m.counter("hdiff_faulted_attempts_total").add(local.faulted_attempts);
      m.counter("hdiff_retry_attempts_total").add(local.retry_attempts);
      m.counter("hdiff_recovered_cases_total").add(local.recovered_cases);
      m.counter("hdiff_quarantined_cases_total").add(local.quarantined_cases);
    }
    if (stats) *stats = std::move(local);
  };

  if (jobs <= 1) {
    // Serial path: with memoization off this is exactly the seed's loop in
    // `Pipeline::run` — same calls, same order, no pool.
    net::EchoServer echo(config_.echo_max_records);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const TestCase& tc = cases[i];
      CaseStatus status;
      DetectionResult delta = evaluate_case(tc, echo, status);
      if (config_.on_delta) config_.on_delta(i, tc, delta, status.quarantined);
      DetectionEngine::accumulate(total, delta);
      fold_status(tc, status);
    }
    finish(echo.log().size(), echo.dropped());
    return total;
  }

  // Parallel path: workers claim case indices from a shared counter and
  // write per-case deltas; the merge then replays the deltas in index order,
  // so dedupe-by-first-occurrence in `accumulate` resolves exactly as the
  // serial loop would, independent of scheduling.
  std::vector<DetectionResult> deltas(cases.size());
  std::vector<CaseStatus> statuses(cases.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::unique_ptr<net::EchoServer>> echoes;
  echoes.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) {
    echoes.push_back(
        std::make_unique<net::EchoServer>(config_.echo_max_records));
  }

  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) {
    workers.emplace_back([&, w] {
      net::EchoServer& echo = *echoes[w];
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= cases.size()) break;
        deltas[i] = evaluate_case(cases[i], echo, statuses[i]);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (config_.on_delta) {
      config_.on_delta(i, cases[i], deltas[i], statuses[i].quarantined);
    }
    DetectionEngine::accumulate(total, deltas[i]);
    fold_status(cases[i], statuses[i]);
  }

  std::size_t echo_records = 0;
  std::size_t echo_dropped = 0;
  for (const auto& echo : echoes) {
    echo_records += echo->log().size();
    echo_dropped += echo->dropped();
  }
  finish(echo_records, echo_dropped);
  return total;
}

}  // namespace hdiff::core
