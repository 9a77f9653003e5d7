// Persistent campaign state: one append-only campaign log (corpus,
// stream corpus and findings) + a delta-sized checkpoint + the findings
// artifact.
//
// State-dir layout:
//
//   <state-dir>/campaign.state    checkpoint (the source of truth): config
//                                 signature, committed round count, the
//                                 committed prefix of campaign.log, the
//                                 coverage block, the nonzero scheduler arm
//                                 stats and the quarantine retry queue.
//                                 Written tmp+rename, so a kill at any
//                                 point leaves either the previous or the
//                                 next checkpoint, never a torn file.
//   <state-dir>/campaign.log      append-only log of everything that only
//                                 grows: one record per corpus entry,
//                                 stream entry and finding, in the order
//                                 the campaign added them.  Only the prefix
//                                 the checkpoint's log= line names is
//                                 committed; bytes past it (a crash hit
//                                 between append and rename) are ignored by
//                                 readers and truncated by load().
//   <state-dir>/findings.jsonl    append-only JSON-lines artifact, one
//                                 finding per line, round-tagged.
//                                 Regenerated from the committed findings on
//                                 load, which is what makes resume
//                                 byte-identical to an uninterrupted run.
//   <state-dir>/lock              flock(2) advisory lock taken by every
//                                 writer (engine run, serve supervisor).  A
//                                 second writer pointed at the same dir gets
//                                 a structured refusal instead of corrupting
//                                 the append-only artifacts.
//
// campaign.state and every campaign.log line are durable records
// (core/record.h holds the shared framing).  The checkpoint's header is
// `hdiff-campaign-state-v2`; its keys, in render order (<b> = field_enc
// bytes, <n> = decimal):
//
//   config_sig=<sig>  rounds_completed=<n>
//   log=<bytes> <16-hex FNV-1a 64 of those bytes>
//   covsig=<sig>  covweight=<0|1>  covprod=<depth> <leftmost> <name>
//   covsite=<prod> <alt_a> <alt_b> <kind> <64-hex class> <rank> <related>...
//   covboot=<id>...  covered=<id>...  gaphit=<site> <hits>
//                                     (coverage block: only with a plan)
//   arm=<entry> <kind> <attempts> <novel> <cursor>  (sarm= for streams;
//                                     only rows with a nonzero count, an
//                                     absent row reads as zero)
//   retry=<b:prov> <b:raw> <b:spec_text> <b:description>
//
// campaign.log records (no header; the checkpoint's FNV pins the bytes):
//
//   entry=<hash> <b:prov> <b:spec-v1 text>
//   sentry=<hash> <b:prov> <b:hdiff-stream-v1 text>
//   finding=<round> <fingerprint> <b:detector> <b:prov> <b:case_uuid>
//           <b:description> <b:component>...
//
// A load checks the prefix's FNV and that every entry's text hashes to its
// <hash> (its content address).  A `hdiff-campaign-state-v1` checkpoint
// (entry=/sentry=/finding= lines in the checkpoint itself, specs in
// corpus/<h>.case and corpus/<h>.stream files) still loads; it stages its
// whole history, so its first commit writes a complete log and a v2
// checkpoint and leaves corpus/ unreferenced.
//
// Durability (group commit): add_entry/add_stream_entry/add_finding only
// stage their bytes in memory; commit_round publishes a whole round with
// three fsyncs, whatever it added: it writes the round's log records in one
// write past the previous prefix and fdatasyncs the log (plus one directory
// fsync the first time it writes the log; a round that added nothing skips
// the log), appends the round's findings.jsonl
// lines in one write, and only then publishes the checkpoint through
// `write_file_atomic_durable` (tmp + fsync + rename + directory fsync).  So
// a checkpoint never commits a log byte that is not durable, and a
// power-loss-style kill cannot surface an empty or partial checkpoint (the
// classic rename-without-fsync hole).  findings.jsonl appends are
// deliberately not fsynced: the checkpoint and its log prefix are the
// source of truth and load() regenerates the artifact from them.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/coverage.h"
#include "core/record.h"
#include "http/serialize.h"
#include "stream/model.h"
#include "stream/mutate.h"

namespace hdiff::campaign {

/// One corpus member: a mutation seed ("seed:<name>") or an interesting
/// mutant ("mutant:<seed-hash>:<kind>"), stored as a buildable spec so it
/// can be mutated further in later rounds.
struct CorpusEntry {
  std::string hash;        ///< content address of the serialized spec
  std::string provenance;
  http::RequestSpec spec;
};

/// One stream-corpus member: a connection-level seed ("stream-seed:<name>")
/// or an interesting stream mutant ("stream-mutant:<seed-hash>:<kind>"),
/// logged in serialize_stream form so splice/reorder/duplicate/drop
/// operators can keep working on it in later rounds.
struct StreamEntry {
  std::string hash;  ///< content address of the serialized stream
  std::string provenance;
  stream::RequestStream stream;
};

/// One deduplicated finding (see campaign/fingerprint.h for the key).
struct Finding {
  std::size_t round = 0;
  std::string fingerprint;
  std::string detector;
  std::vector<std::string> vector;  ///< normalized divergence components
  std::string provenance;
  std::string case_uuid;    ///< first case that hit this fingerprint
  std::string description;  ///< that case's human-readable synopsis
};

/// A case that exhausted its retries under harness faults; replayed at the
/// start of the next round (PR-2 quarantine integration).  `spec_text` is
/// empty for bootstrap cases, which exist only as wire bytes.
struct RetryEntry {
  std::string provenance;
  std::string raw;
  std::string spec_text;  ///< serialize_spec() form, "" when unavailable
  std::string description;
};

/// One scheduler arm of a request corpus entry: a MutationKind that has
/// variants for the entry's spec.  Derived from the spec, never serialized;
/// the planner keeps the count (and the production ids the variants touch,
/// when coverage is on) and rebuilds the variants themselves only for arms
/// that receive budget.
struct RequestArm {
  std::string kind;                  ///< to_string(MutationKind)
  std::size_t variants = 0;          ///< single-kind variants of the spec
  std::vector<std::size_t> cov_ids;  ///< sorted production ids they touch
};

/// One scheduler arm of a stream corpus entry, with its grouped variants.
/// Derived, never serialized.
struct StreamArm {
  std::string kind;  ///< to_string(StreamMutationKind)
  std::vector<stream::StreamMutant> variants;
};

/// Divergence-feedback statistics for one scheduler arm (corpus entry x
/// mutation kind); persisted so the schedule is a pure function of the
/// checkpoint.  An arm with no row has all-zero stats.
struct ArmStats {
  std::size_t attempts = 0;  ///< mutants of this arm actually observed
  std::size_t novel = 0;     ///< novel fingerprints those mutants produced
  std::size_t cursor = 0;    ///< next variant index (rotation)

  bool zero() const { return attempts == 0 && novel == 0 && cursor == 0; }
  friend bool operator==(const ArmStats&, const ArmStats&) = default;
};

/// (entry index, kind) -> stats; rows exist only for arms that were tried.
using ArmTable = std::map<std::pair<std::size_t, std::string>, ArmStats>;

/// The stats of arm (`entry`, `kind`) without inserting a row: an absent
/// row is all zero.
const ArmStats& arm_stats(const ArmTable& table, std::size_t entry,
                          const std::string& kind);

/// Work counters of one commit_round.
struct CommitStats {
  std::size_t fsyncs = 0;          ///< fsync and fdatasync calls
  std::size_t log_bytes = 0;       ///< appended to campaign.log
  std::size_t findings_bytes = 0;  ///< appended to findings.jsonl
  std::size_t state_bytes = 0;     ///< checkpoint bytes written
};

// The durable-record codec (field encoding, spec serialization) lives in
// core/record.h, below src/stream; the campaign names stay valid for every
// existing call site.
using core::deserialize_spec;
using core::field_dec;
using core::serialize_spec;

/// Content address: fingerprint-format hash of `serialize_spec(spec)`.
/// Keyed on the serialized spec rather than the wire bytes so two specs
/// that happen to concatenate to the same wire form stay distinct entries.
std::string content_address(const http::RequestSpec& spec);

/// Content address of a stream: hash of `serialize_stream(stream)` — keyed
/// on the per-message structure, so two streams whose messages concatenate
/// to identical wire bytes stay distinct entries.
std::string stream_content_address(const stream::RequestStream& stream);

/// Durable tmp+rename publish: writes `path + ".tmp"`, fsyncs it, renames
/// it over `path`, and fsyncs the parent directory so the rename itself
/// survives a power loss.  Readers see the old bytes or the new bytes,
/// never a torn prefix; a stale/torn tmp file left by an earlier crash is
/// simply overwritten.  Adds the fsyncs it issues to `*fsyncs` when given.
bool write_file_atomic_durable(const std::string& path,
                               std::string_view content,
                               std::size_t* fsyncs = nullptr);

/// In-memory image of the state dir plus the commit protocol.
class StateStore {
 public:
  explicit StateStore(std::string state_dir);
  ~StateStore();
  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// True when a checkpoint file exists.
  bool exists() const;

  /// Take the exclusive writer lock (flock on `<dir>/lock`, creating the
  /// directory if needed).  Non-blocking: returns false with error() set
  /// when another process (or another StateStore in this process) holds
  /// it.  flock is per open file description, so the refusal is testable
  /// single-process.  Released by release_lock() or the destructor.
  bool acquire_lock();
  void release_lock();
  bool locked() const noexcept { return lock_fd_ >= 0; }

  /// Create the directory layout for a fresh campaign.
  bool init(const std::string& config_sig);

  /// Load the checkpoint and the log prefix it commits, truncate a torn
  /// log tail past that prefix, and regenerate findings.jsonl from the
  /// committed findings.
  bool load();

  /// Load without healing the log or findings.jsonl and without requiring
  /// the lock — the observer path (`campaign status`), which may read a
  /// state dir whose owner is appending to both.
  bool load_readonly();

  /// Append an entry and stage its log record, which the next commit_round
  /// writes (idempotent).  Returns the entry index, or the existing index
  /// for a duplicate hash.
  std::size_t add_entry(CorpusEntry entry);
  bool has_entry(const std::string& hash) const;
  /// Index of the entry with content address `hash`, or npos.
  std::size_t entry_index(const std::string& hash) const;

  /// Stream-corpus counterparts of add_entry/has_entry/entry_index (stages
  /// a sentry= record; idempotent).
  std::size_t add_stream_entry(StreamEntry entry);
  bool has_stream_entry(const std::string& hash) const;
  std::size_t stream_entry_index(const std::string& hash) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Record a finding and stage its log record and findings.jsonl line.
  /// commit_round appends both before the checkpoint rename; a crash in
  /// between is healed by load().
  void add_finding(Finding f);
  bool known_fingerprint(const std::string& fp) const {
    return fingerprints_.count(fp) > 0;
  }

  /// The first steps of commit_round: write the staged log records past
  /// the log's written prefix and fdatasync them, then append the staged
  /// findings lines, without publishing the checkpoint.  Returns false
  /// with error() set on any failed open, write, fdatasync or append (what
  /// was not written stays staged).  Public so the engine's crash hook can
  /// stop in the worst window, right before the checkpoint rename.
  bool write_staged();

  /// write_staged(), then atomically publish the state with
  /// `rounds_completed = round + 1`, committing the log written so far.
  /// On failure returns false with error() set and the previous checkpoint
  /// untouched.
  bool commit_round(std::size_t round);

  /// Work counters of the last commit_round.
  const CommitStats& last_commit() const { return last_commit_; }

  // ---- checkpointed state (mutated by the engine between commits) ----
  std::string config_sig;
  std::size_t rounds_completed = 0;  ///< committed rounds (round 0 = first)
  std::vector<CorpusEntry> entries;
  ArmTable arms;
  /// Stream corpus and its (stream entry x StreamMutationKind) arms.  Both
  /// serialize as their own keys (sentry= in the log, sarm= in the
  /// checkpoint), so a campaign without streams writes neither.
  std::vector<StreamEntry> stream_entries;
  ArmTable stream_arms;
  std::vector<RetryEntry> retry_queue;
  std::vector<Finding> findings;
  /// Static coverage plan (DESIGN.md §14), serialized into the checkpoint
  /// so resumed and sharded runs see byte-identical production/site ids.
  /// Empty plan (the default, and any checkpoint written before coverage
  /// existed) means coverage is disabled — the healed upgrade path.
  analysis::CoveragePlan coverage;
  /// When false the plan is tracked and reported but the scheduler ignores
  /// the uncovered/gap terms (the E15 control arm).
  bool coverage_weighting = true;
  std::set<std::size_t> covered;                 ///< production ids exercised
  std::map<std::size_t, std::size_t> gap_hits;   ///< site id -> hit count
  bool coverage_enabled() const { return coverage.enabled(); }

  // ---- derived scheduler tables (never serialized; DESIGN.md §10) ----
  /// Arm tables of a prefix of `entries` / `stream_entries`, index-aligned.
  /// plan_round extends them to the whole corpus the first time it sees a
  /// new entry, so a round costs what its new entries and budgeted arms
  /// cost, not what the corpus holds.  parse_state drops both, and
  /// adopt_coverage drops the request tables (their cov_ids depend on the
  /// plan).
  std::vector<std::vector<RequestArm>> entry_arms;
  std::vector<std::vector<StreamArm>> stream_entry_arms;

  const std::string& state_dir() const { return dir_; }
  const std::string& error() const { return error_; }

  /// Paths (exposed for the byte-identity checks in tests).
  std::string state_path() const;
  std::string log_path() const;
  std::string findings_path() const;
  std::string lock_path() const;

 private:
  /// The v2 checkpoint text.
  std::string render_state() const;
  /// Read the checkpoint and the log prefix it commits.  `heal` truncates
  /// a log tail past that prefix.
  bool read_state(bool heal);
  bool parse_state(std::string_view text, bool* v1);
  /// Apply one entry=/sentry=/finding= record, from the log (v2: the
  /// entry's text is in the record) or from a v1 checkpoint (read from
  /// corpus/).  False with error() set on a bad record.
  bool apply_record(const core::Record& line, bool v1);
  bool read_log();
  bool truncate_findings() const;

  std::string dir_;
  std::string error_;
  int lock_fd_ = -1;
  std::string staged_log_;       ///< log records added since the last write
  std::string staged_findings_;  ///< jsonl lines of this round's findings
  std::uint64_t log_bytes_ = 0;  ///< log bytes written (and fdatasynced)
  std::uint64_t log_fnv_ = core::kFnv1a64Basis;  ///< FNV-1a 64 of them
  CommitStats last_commit_;
  std::unordered_map<std::string, std::size_t> entry_index_;
  std::unordered_map<std::string, std::size_t> stream_entry_index_;
  std::set<std::string> fingerprints_;
};

/// Render one finding as its findings.jsonl line (no trailing newline).
/// The line starts with the round field so truncation can parse it cheaply.
std::string finding_jsonl(const Finding& f);

}  // namespace hdiff::campaign
