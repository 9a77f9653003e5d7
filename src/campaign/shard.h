// Sharded round execution: deterministic case->shard assignment and the
// durable shard result files the `hdiff serve` supervisor merges.
//
// Assignment is a pure function of the case's wire bytes (FNV-1a64 mod
// shard count), so the supervisor and every worker — each holding its own
// copy of the same committed checkpoint — partition the identical planned
// case list identically, with no coordination.  Duplicate wire bytes land
// on the same shard, which keeps each worker's observation memo as warm as
// the single-process engine's.
//
// A worker publishes its outcomes as one result file per (round, shard),
// written with the store's durable tmp+rename protocol: the supervisor sees
// a complete result or none at all, never a torn one.  The header pins
// round, shard, shard count and config signature, so a stale file from an
// earlier daemon generation (different config, different shard split) is
// rejected instead of merged; a valid file left behind by a crashed
// supervisor is *reused* on restart, which is what makes a supervisor kill
// at any instant resume with zero lost and zero duplicated work.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/engine.h"
#include "core/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hdiff::campaign {

/// Which shard owns the case with these wire bytes (fnv1a64(raw) % shards;
/// shards == 0 is treated as 1).
std::size_t shard_of(std::string_view raw, std::size_t shards) noexcept;

/// The indices of `planned` owned by `shard` (stable ascending order).
std::vector<std::size_t> shard_indices(const std::vector<PlannedCase>& planned,
                                       std::size_t shard, std::size_t shards);

/// One worker's published outcomes for one (round, shard).
struct ShardResult {
  std::size_t round = 0;
  std::size_t shard = 0;
  std::size_t shards = 0;     ///< total shard count the plan was split by
  std::string config_sig;     ///< campaign config signature of the plan
  /// Executor degradation counters from the worker (satellite: surfaced
  /// live on /status).  Per-case quarantine flags travel in `outcomes`.
  std::size_t faulted_attempts = 0;
  std::size_t retry_attempts = 0;
  std::size_t recovered_cases = 0;
  std::size_t quarantined_cases = 0;
  /// Planned-case index -> outcome, only for indices this shard executed.
  std::map<std::size_t, CaseOutcome> outcomes;
  /// Optional cross-process observability payload: the worker's metrics
  /// snapshot and trace-span buffer ride inside the same durable result
  /// file, so observability arrives exactly-once with the outcomes it
  /// describes — a killed worker's partial counts die with it and the
  /// re-executed shard's replace them.  Histogram quantile fields are not
  /// serialized (they are derived presentation); a parsed snapshot carries
  /// name/sum/count/bounds/buckets only.
  obs::Registry::Snapshot metrics;
  std::uint32_t trace_pid = 0;  ///< OS pid that produced `trace` (0 = none)
  std::vector<obs::TraceEvent> trace;
};

/// Canonical result path: `<state-dir>/shards/round-<r>-shard-<k>.result`.
std::string shard_result_path(const std::string& state_dir, std::size_t round,
                              std::size_t shard);

/// Serialize / parse the result file, a durable record (core/record.h)
/// with header `hdiff-shard-result-v1` and keys (<b> = field_enc bytes):
///
///   round=<r>  shard=<k> <shards>  config_sig=<sig>
///   stats=<faulted> <retries> <recovered> <quarantined>
///   mc=<b:name> <value>  mg=<b:name> <signed value>
///   mh=<b:name> <sum> <count> <nbounds> <bound>... <bucket>...  (nbounds+1)
///   tpid=<pid>  tev=<ph> <tid> <ts> <dur> <b:name> <b:cat> <b:key> <b:value>
///   case=<index> <quarantined> <nsigs>, then nsigs sig=<b:detector> <b>...
///   end=<number of case lines>
///
/// The end line is the last: `parse_shard_result` rejects any malformed or
/// torn content, every proper prefix of a rendered result included.
std::string render_shard_result(const ShardResult& result);
bool parse_shard_result(std::string_view text, ShardResult* out);

/// Durable publish (tmp+fsync+rename; creates `<state-dir>/shards/`).
bool write_shard_result(const std::string& state_dir,
                        const ShardResult& result);

/// Load and validate a result file against the expected round/shard
/// split/config.  Returns false when missing, torn, or from a different
/// plan (stale daemon generation).
bool load_shard_result(const std::string& state_dir, std::size_t round,
                       std::size_t shard, std::size_t shards,
                       const std::string& config_sig, ShardResult* out);

/// Merge per-shard outcome maps into one index-aligned outcome vector for
/// integrate_round.  Returns false (and reports the first hole in
/// `*missing`) when some planned index was executed by no shard.
bool merge_shard_outcomes(const std::vector<ShardResult>& results,
                          std::size_t planned_cases,
                          std::vector<CaseOutcome>* out,
                          std::size_t* missing);

}  // namespace hdiff::campaign
