// Parallel differential-testing executor — the hot loop of Figure 6.
//
// Step 3 of the paper's workflow fires every test case at every proxy and
// replays every forward into every back-end.  Each case is independent, so
// the stage is embarrassingly parallel; the seed ran it as a single-threaded
// loop in `Pipeline::run`.  `ParallelExecutor` shards the case list across a
// fixed-size worker pool (each worker with its own `net::EchoServer` and its
// own per-case `DetectionResult` deltas) and merges the deltas in stable
// case-index order, so the accumulated result is bit-identical to the serial
// run regardless of thread scheduling.
//
// A case is either a single request or a request *stream* (TestCase::
// stream): the executor observes a stream through `Chain::observe_stream`
// and judges it with `StreamDetector`, under the same scheduling, retry,
// quarantine, memo and index-order merge as a single request.
//
// Underneath sits a two-level observation memo:
//   * `ObservationMemo` — whole-case level.  ABNF generation emits many
//     byte-identical raw requests; the first observation of a given byte
//     string is cached and reused (uuid patched) for every later duplicate.
//     Stream cases are memoized alongside (their judged findings), keyed
//     by case kind and message boundaries.
//   * `net::VerdictCache` — model-call level, shared with the chain.  It
//     catches the far larger redundancy the case-level memo cannot see:
//     distinct raw requests whose *forwarded* bytes collapse after proxy
//     normalization, and the per-(proxy, back-end) respond/relay calls the
//     seed chain recomputed for byte-identical forwards.
// Both caches key on full input bytes (hash + full-byte compare), memoize
// only deterministic `const` calls, and therefore never change findings —
// the determinism test asserts this over the whole pipeline.
//
// Graceful degradation: an observation that comes back with a harness
// fault (ChainObservation::fault, e.g. from a fault-injected fleet or a
// flaky live chain) is never evaluated, never cached, and never aborts the
// run.  The executor retries it under `ExecutorConfig::retry` (exponential
// backoff, deterministic jitter, per-case deadline); cases that still
// fault are *quarantined* — excluded from difference analysis and reported
// per-case in `ExecutorStats::quarantined` — so a bad harness leg can
// reduce coverage but can never masquerade as a behavioural difference.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/detect.h"
#include "core/record.h"
#include "core/stream_detect.h"
#include "core/testcase.h"
#include "net/chain.h"
#include "obs/obs.h"

namespace hdiff::core {

/// Cross-case observation cache keyed by raw request bytes.  A hash picks
/// the bucket; entries within a bucket are confirmed by full-byte
/// comparison, so distinct byte strings can never alias even under hash
/// collision.  Entries are heap-allocated and never evicted, so pointers
/// returned by `find` stay valid for the memo's lifetime.  Internally
/// synchronized (sharded locks); hit/miss counters are exact.
class ObservationMemo {
 public:
  using Hasher = std::uint64_t (*)(std::string_view) noexcept;

  /// `hasher` is injectable for collision testing; production uses FNV-1a.
  explicit ObservationMemo(Hasher hasher = &fnv1a64) : hasher_(hasher) {}

  /// Returns the cached observation for `raw`, or nullptr and counts a
  /// miss.  The entry's `uuid` is the first observer's; detection only
  /// reads the verdict maps, so callers evaluating against a cached entry
  /// need no per-case patching.
  const net::ChainObservation* find(std::string_view raw);

  /// Caches `obs` as the observation for `raw` and returns the stored
  /// entry.  First insert for a given byte string wins; a racing worker's
  /// later insert is discarded (the earlier, identical entry is returned).
  const net::ChainObservation* insert(std::string_view raw,
                                      net::ChainObservation obs);

  /// Stream-case counterparts of find/insert, same contract.  The entry is
  /// keyed by the case kind plus the length-prefixed message list, so a
  /// stream never aliases a single request with the same concatenated
  /// bytes, nor another stream that splits those bytes differently.  A
  /// stream entry holds the judged result rather than the observation: the
  /// observation carries a connection trace per leg and is far larger,
  /// while the findings are all a later duplicate needs.
  const StreamDetectionResult* find_stream(
      const std::vector<std::string>& messages);
  const StreamDetectionResult* insert_stream(
      const std::vector<std::string>& messages, StreamDetectionResult result);

  std::size_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  std::size_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Raw request bytes retained as memo keys (memory footprint proxy).
  std::size_t stored_bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }
  std::size_t size() const;

 private:
  /// The variant alternative is the entry's case kind; lookups match on
  /// kind as well as on the full key bytes.
  struct Entry {
    std::string key;
    std::variant<std::unique_ptr<net::ChainObservation>,
                 std::unique_ptr<StreamDetectionResult>>
        obs;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, std::vector<Entry>> buckets;
  };
  static constexpr std::size_t kShards = 16;

  Shard& shard_for(std::uint64_t hash) { return shards_[hash % kShards]; }
  template <class Obs>
  const Obs* find_as(std::string_view key);
  template <class Obs>
  const Obs* insert_as(std::string key, Obs obs);

  Hasher hasher_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> bytes_{0};
};

struct ExecutorConfig {
  /// Worker threads; 0 = hardware_concurrency().  `jobs = 1` runs the exact
  /// pre-executor serial loop in the calling thread (no pool is spawned).
  std::size_t jobs = 0;
  /// Enable the observation memo and verdict cache.  Disabling reproduces
  /// the seed's every-case-from-scratch behaviour; findings are identical
  /// either way.
  bool memoize = true;
  /// `max_records` bound for each worker's EchoServer (0 = unbounded).
  /// Keeps resident memory flat at 92k-case scale.
  std::size_t echo_max_records = 4096;
  /// Degradation policy for harness faults (fault-injected or live flaky
  /// fleets): a faulted observation is retried up to `retry.attempts` times
  /// with deterministic backoff, bounded by `retry.case_deadline_ms`; a
  /// case still faulting afterwards is quarantined — excluded from
  /// difference analysis and reported in ExecutorStats — instead of
  /// aborting the run or poisoning findings.  On a fault-free fleet this
  /// costs nothing (no fault -> no retry, no sleep).
  net::RetryPolicy retry;
  /// Optional tracing/metrics (obs.h).  Default-disabled; when enabled the
  /// executor emits one "case" span per test case, chain-hop spans and
  /// latency histograms via obs::ChainObs, "fault"/"quarantine" instants,
  /// and folds its counters into the registry when the run finishes.
  /// Observability only reads — findings are byte-identical either way.
  obs::Observability obs;

  // ---- campaign hooks (src/campaign) ----
  /// Caller-owned caches reused *across* `run()` calls (the campaign engine
  /// keeps one of each for a whole multi-round session, so a mutant already
  /// observed in round k costs a hash lookup in round k+n, and minimizer
  /// replays are nearly free).  When set they replace the per-run caches;
  /// `memoize = false` disables both, shared or not.  Sharing never changes
  /// findings: entries are keyed by full input bytes and observations are
  /// deterministic, so a cross-run hit returns exactly what a fresh
  /// observation would.
  ObservationMemo* shared_memo = nullptr;
  net::VerdictCache* shared_verdicts = nullptr;
  /// Per-case delta tap, invoked once per test case in stable case-index
  /// order (after the workers joined, during the deterministic merge), with
  /// the case's own `DetectionResult` delta *before* accumulation dedup.
  /// `quarantined` distinguishes "no divergence" from "never observed"
  /// (the delta is empty either way).  The campaign engine derives
  /// divergence signatures from these deltas; accumulated totals cannot
  /// recover per-case attribution.
  std::function<void(std::size_t index, const TestCase& tc,
                     const DetectionResult& delta, bool quarantined)>
      on_delta;
};

/// One case excluded from difference analysis after exhausting retries.
struct QuarantinedCase {
  std::string uuid;
  net::ChainError error = net::ChainError::kNone;  ///< last fault seen
  std::size_t attempts = 0;                        ///< observation attempts
  std::string detail;
};

struct ExecutorStats {
  std::size_t jobs = 0;           ///< workers actually used
  std::size_t cases = 0;          ///< test cases executed
  std::size_t memo_hits = 0;      ///< whole-case observation reuses
  std::size_t memo_misses = 0;
  std::size_t verdict_hits = 0;   ///< individual model-call reuses
  std::size_t verdict_misses = 0;
  std::size_t memo_bytes = 0;     ///< raw bytes retained as memo keys
  std::size_t verdict_bytes = 0;  ///< input bytes retained as cache keys
  std::size_t echo_records = 0;   ///< forwards retained across worker echoes
  std::size_t echo_dropped = 0;   ///< forwards dropped by the echo bound

  // ---- fault tolerance (all zero on a fault-free run) ----
  std::size_t faulted_attempts = 0;   ///< observation attempts that faulted
  std::size_t retry_attempts = 0;     ///< re-observations performed
  std::size_t recovered_cases = 0;    ///< faulted at least once, then succeeded
  std::size_t quarantined_cases = 0;  ///< == quarantined.size()
  /// Faulted attempts by ChainError (index by static_cast<size_t>).
  std::array<std::size_t, net::kChainErrorCount> fault_counts{};
  /// Quarantined cases in stable case-index order (deterministic for a
  /// given fault schedule, independent of jobs).
  std::vector<QuarantinedCase> quarantined;

  double memo_hit_rate() const noexcept {
    const std::size_t total = memo_hits + memo_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(memo_hits) /
                            static_cast<double>(total);
  }
  double verdict_hit_rate() const noexcept {
    const std::size_t total = verdict_hits + verdict_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(verdict_hits) /
                            static_cast<double>(total);
  }
};

/// Runs the differential-testing stage (observe + evaluate + accumulate)
/// over a case list.  Output is byte-identical to the seed's serial loop for
/// every configuration; `jobs` and `memoize` trade only time and memory.
class ParallelExecutor {
 public:
  explicit ParallelExecutor(ExecutorConfig config = {});

  DetectionResult run(const net::Chain& chain,
                      const std::vector<TestCase>& cases,
                      ExecutorStats* stats = nullptr) const;

  /// 0 -> hardware_concurrency() (min 1), otherwise the request itself.
  static std::size_t resolve_jobs(std::size_t requested);

 private:
  ExecutorConfig config_;
};

}  // namespace hdiff::core
