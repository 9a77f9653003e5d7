// Persistent campaign state: content-addressed corpus + append-only
// findings DB + crash-safe checkpoint.
//
// State-dir layout:
//
//   <state-dir>/campaign.state    checkpointed state (the source of truth):
//                                 config signature, committed round count,
//                                 corpus entry list, scheduler arm stats,
//                                 quarantine retry queue, and every finding.
//                                 Written tmp+rename, so a kill at any point
//                                 leaves either the previous or the next
//                                 checkpoint, never a torn file.
//   <state-dir>/corpus/<h>.case   one request spec per file, named by the
//                                 16-hex-digit content address of its
//                                 serialized form.  Writes are idempotent
//                                 (same content -> same bytes at the same
//                                 path), so replaying an interrupted round
//                                 rewrites them identically.
//   <state-dir>/corpus/<h>.stream one request *stream* per file (stream
//                                 seeds and interesting stream mutants),
//                                 serialize_stream form, same idempotent
//                                 content-addressed discipline.
//   <state-dir>/findings.jsonl    append-only JSON-lines artifact, one
//                                 finding per line, round-tagged.  Lines for
//                                 rounds newer than the checkpoint (a crash
//                                 hit between append and rename) are
//                                 truncated away on load, which is what
//                                 makes resume byte-identical to an
//                                 uninterrupted run.
//   <state-dir>/lock              flock(2) advisory lock taken by every
//                                 writer (engine run, serve supervisor).  A
//                                 second writer pointed at the same dir gets
//                                 a structured refusal instead of corrupting
//                                 the append-only artifact.
//
// campaign.state, *.case (spec-v1) and *.stream (hdiff-stream-v1) are
// durable records (core/record.h holds the shared framing).  The
// checkpoint's header is `hdiff-campaign-state-v1`; its keys, in render
// order (<b> = field_enc bytes, <n> = decimal):
//
//   config_sig=<sig>  rounds_completed=<n>
//   covsig=<sig>  covweight=<0|1>  covprod=<depth> <leftmost> <name>
//   covsite=<prod> <alt_a> <alt_b> <kind> <64-hex class> <rank> <related>...
//   covboot=<id>...  covered=<id>...  gaphit=<site> <hits>
//                                     (coverage block: only with a plan)
//   entry=<hash> <b:prov>  sentry=<hash> <b:prov>
//   arm=<entry> <kind> <attempts> <novel> <cursor>  (sarm= for streams)
//   retry=<b:prov> <b:raw> <b:spec_text> <b:description>
//   finding=<round> <fingerprint> <b:detector> <b:prov> <b:case_uuid>
//           <b:description> <b:component>...
//
// Durability (group commit): add_entry/add_stream_entry/add_finding only
// stage their bytes in memory; commit_round publishes a whole round at once.
// It writes every staged corpus file to <path>.tmp and fsyncs each (the
// fsyncs run concurrently, bounded by set_io_jobs), renames them into
// place, fsyncs corpus/ once, appends the round's findings lines in one
// write, and only then publishes the checkpoint through
// `write_file_atomic_durable` (tmp + fsync + rename + directory fsync).  So
// a checkpoint never names a corpus file that is not durable, and a
// power-loss-style kill cannot surface an empty or partial checkpoint (the
// classic rename-without-fsync hole).  Files left by a crashed round are
// unreferenced and content-addressed; the re-run round rewrites them
// identically.  findings.jsonl appends are deliberately not fsynced: the
// checkpoint is the source of truth and load() regenerates the artifact
// from it.
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
/// stored as corpus/<hash>.stream in serialize_stream form so splice/
/// reorder/duplicate/drop operators can keep working on it in later rounds.
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
/// checkpoint.
struct ArmStats {
  std::size_t attempts = 0;  ///< mutants of this arm actually observed
  std::size_t novel = 0;     ///< novel fingerprints those mutants produced
  std::size_t cursor = 0;    ///< next variant index (rotation)

  friend bool operator==(const ArmStats&, const ArmStats&) = default;
};

// The durable-record codec (field encoding, spec serialization) lives in
// core/record.h, below src/stream; the campaign names stay valid for every
// existing call site.
using core::deserialize_spec;
using core::field_dec;
using core::serialize_spec;

/// Content address: fingerprint-format hash of `serialize_spec(spec)`.
/// Keyed on the serialized spec rather than the wire bytes so two specs
/// that happen to concatenate to the same wire form keep distinct files.
std::string content_address(const http::RequestSpec& spec);

/// Content address of a stream: hash of `serialize_stream(stream)` — keyed
/// on the per-message structure, so two streams whose messages concatenate
/// to identical wire bytes keep distinct corpus files.
std::string stream_content_address(const stream::RequestStream& stream);

/// Durable tmp+rename publish: writes `path + ".tmp"`, fsyncs it, renames
/// it over `path`, and fsyncs the parent directory so the rename itself
/// survives a power loss.  Readers see the old bytes or the new bytes,
/// never a torn prefix; a stale/torn tmp file left by an earlier crash is
/// simply overwritten.
bool write_file_atomic_durable(const std::string& path,
                               std::string_view content);

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

  /// Load the checkpoint, the corpus files it references, and truncate
  /// findings.jsonl back to the committed round count.
  bool load();

  /// Load without healing findings.jsonl and without requiring the lock —
  /// the observer path (`campaign status`) and serve workers, which read
  /// the supervisor-owned master checkpoint while the supervisor may be
  /// appending to the artifact.
  bool load_readonly();

  /// Append an entry and stage its corpus file, which the next
  /// commit_round writes (idempotent).  Returns the entry index, or the
  /// existing index for a duplicate hash.
  std::size_t add_entry(CorpusEntry entry);
  bool has_entry(const std::string& hash) const;
  /// Index of the entry with content address `hash`, or npos.
  std::size_t entry_index(const std::string& hash) const;

  /// Stream-corpus counterparts of add_entry/has_entry/entry_index (stages
  /// corpus/<hash>.stream; idempotent).
  std::size_t add_stream_entry(StreamEntry entry);
  bool has_stream_entry(const std::string& hash) const;
  std::size_t stream_entry_index(const std::string& hash) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Record a finding and stage its findings.jsonl line.  commit_round
  /// appends the round's lines before the checkpoint rename; a crash in
  /// between is healed by load()'s truncation.
  void add_finding(Finding f);
  bool known_fingerprint(const std::string& fp) const {
    return fingerprints_.count(fp) > 0;
  }

  /// Steps 1-4 of commit_round: make the staged corpus files durable and
  /// append the staged findings lines, without publishing the checkpoint.
  /// Returns false with error() set on any failed write, fsync, rename or
  /// append (the staged bytes stay staged).  Public so the engine's crash
  /// hook can stop in the worst window, right before the checkpoint rename.
  bool write_staged();

  /// write_staged(), then atomically publish the state with
  /// `rounds_completed = round + 1`.  On failure returns false with error()
  /// set and the previous checkpoint untouched.
  bool commit_round(std::size_t round);

  /// Bound on the concurrent corpus fsyncs of write_staged (0 = hardware
  /// concurrency, the ExecutorConfig::jobs convention).  Writers pass their
  /// executor's `jobs`.
  void set_io_jobs(std::size_t jobs) { io_jobs_ = jobs; }

  // ---- checkpointed state (mutated by the engine between commits) ----
  std::string config_sig;
  std::size_t rounds_completed = 0;  ///< committed rounds (round 0 = first)
  std::vector<CorpusEntry> entries;
  std::map<std::pair<std::size_t, std::string>, ArmStats> arms;
  /// Stream corpus and its (stream entry x StreamMutationKind) arms.  Both
  /// serialize as their own checkpoint keys (sentry=/sarm=), so a campaign
  /// without streams renders a byte-identical checkpoint to one built
  /// before the stream subsystem existed.
  std::vector<StreamEntry> stream_entries;
  std::map<std::pair<std::size_t, std::string>, ArmStats> stream_arms;
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
  std::string findings_path() const;
  std::string corpus_path(const std::string& hash) const;
  std::string stream_corpus_path(const std::string& hash) const;
  std::string lock_path() const;

 private:
  /// A corpus file waiting for the next commit.
  struct StagedFile {
    std::string path;
    std::string content;
  };

  /// The checkpoint text.  The finding= lines are not re-encoded here:
  /// add_finding and parse_state append each one once to finding_lines_,
  /// and render_state concatenates that text (findings dominate the
  /// checkpoint and only ever grow).
  std::string render_state() const;
  bool parse_state(std::string_view text);
  bool truncate_findings() const;

  std::string dir_;
  std::string error_;
  int lock_fd_ = -1;
  std::size_t io_jobs_ = 0;
  std::vector<StagedFile> staged_files_;
  std::string staged_findings_;  ///< jsonl lines of this round's findings
  std::string finding_lines_;    ///< checkpoint finding= lines, in order
  std::unordered_map<std::string, std::size_t> entry_index_;
  std::unordered_map<std::string, std::size_t> stream_entry_index_;
  std::set<std::string> fingerprints_;
};

/// Render one finding as its findings.jsonl line (no trailing newline).
/// The line starts with the round field so truncation can parse it cheaply.
std::string finding_jsonl(const Finding& f);

}  // namespace hdiff::campaign
