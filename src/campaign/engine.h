// Persistent differential-fuzzing campaign engine (the subsystem's round
// loop; paper §V: "the tool can be run periodically").
//
// A campaign is a sequence of rounds against a fixed fleet:
//
//   round 0      executes the bootstrap corpus (the exact one-shot `hdiff
//                run` case list), so the campaign's findings are a superset
//                of a one-shot run by construction;
//   round 1..N   replay the quarantine retry queue, then fire the mutants
//                the divergence-feedback scheduler allocated across
//                (corpus entry x MutationKind) arms.
//
// Every per-case delta (via ExecutorConfig::on_delta) is fingerprinted;
// novel fingerprints become findings, and the mutant that produced one is
// "interesting": it is delta-debug minimized and joins the corpus as a new
// mutation seed for later rounds.  After each round the engine appends the
// round's findings to findings.jsonl and then atomically publishes the
// checkpoint; a kill at any point resumes to byte-identical state
// (EngineTest.CrashedRoundResumesByteIdentically).
//
// Determinism: rounds depend only on the checkpoint (scheduler weights,
// cursors, retry queue) and the deterministic model fleet — no wall clock,
// no RNG — and the executor merges per-case results in stable index order,
// so state and findings bytes are identical across `--jobs` settings.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "campaign/fingerprint.h"
#include "campaign/minimize.h"
#include "campaign/store.h"
#include "core/executor.h"
#include "core/testcase.h"
#include "impls/model.h"
#include "obs/obs.h"
#include "stream/seeds.h"

namespace hdiff::campaign {

/// A named mutation seed (joins the corpus as "seed:<name>").
struct SeedSpec {
  std::string name;
  http::RequestSpec spec;
};

struct CampaignConfig {
  std::string state_dir;
  /// Mutation rounds to run (round 0, the bootstrap pass, is extra).
  std::size_t rounds = 5;
  /// Mutants fired per mutation round.
  std::size_t budget_per_round = 96;
  /// Minimize each newly-interesting mutant before storing it.
  bool minimize_new = true;
  MinimizeOptions minimize;
  /// Executor settings for every round (jobs, memoize, retry policy).  The
  /// engine installs its own cross-round caches and delta tap on top.
  core::ExecutorConfig executor;
  obs::Observability obs;

  /// One-shot case list executed as round 0.  Must be reproducible across
  /// resumes (the CLI regenerates it; generation is deterministic).
  std::vector<core::TestCase> bootstrap;
  /// Initial mutation seeds.  Empty = default_campaign_seeds().
  std::vector<SeedSpec> seeds;

  /// Connection-level stream fuzzing (src/stream).  When enabled, round 1
  /// observes every stream seed whole, and later rounds spend
  /// `stream_budget_per_round` across (stream entry x StreamMutationKind)
  /// arms on top of the single-request budget.  The stream fields join the
  /// config signature only when `streams` is true, so existing state dirs
  /// resume untouched by the feature's existence.
  bool streams = false;
  /// Initial stream seeds.  Empty = stream::default_stream_seeds().
  std::vector<stream::StreamSeed> stream_seeds;
  std::size_t stream_budget_per_round = 16;

  /// Static coverage plan to adopt on fresh starts (DESIGN.md §14).  Empty
  /// = coverage off.  Excluded from campaign_config_sig like jobs/rounds:
  /// an existing checkpoint's own (possibly absent) plan always wins, so
  /// pre-coverage state dirs resume untouched.
  analysis::CoveragePlan coverage;
  /// Scheduler uses the coverage terms (false = track + report only, the
  /// E15 control arm).  Adopted with the plan; checkpoint wins thereafter.
  bool coverage_weighting = true;

  /// Test hook: simulate a kill after this round appended its log records
  /// and its findings but before the checkpoint rename (the worst crash
  /// window).  -1 = never.
  int crash_after_round = -1;
};

/// Per-round accounting for the report and the JSON block.
struct RoundReport {
  std::size_t round = 0;
  std::size_t cases = 0;        ///< cases executed this round
  std::size_t replayed = 0;     ///< retry-queue replays among them
  std::size_t novel = 0;        ///< novel fingerprints filed
  std::size_t duplicate = 0;    ///< signatures deduplicated away
  std::size_t quarantined = 0;  ///< cases pushed to the retry queue
  std::size_t new_entries = 0;  ///< interesting mutants added to the corpus
  std::size_t minimize_steps = 0;
  /// Cumulative coverage state after this round (0/0 when coverage is off).
  std::size_t coverage_covered = 0;  ///< productions exercised so far
  std::size_t gap_sites_hit = 0;     ///< distinct gap sites hit so far
};

struct CampaignReport {
  std::vector<RoundReport> rounds;  ///< rounds executed by THIS call
  std::size_t rounds_completed = 0;
  std::size_t total_findings = 0;
  std::size_t corpus_entries = 0;
  std::size_t stream_entries = 0;    ///< stream-corpus members (0 = off)
  std::size_t retry_depth = 0;       ///< retry queue length at exit
  bool resumed = false;              ///< picked up an existing checkpoint
  bool interrupted = false;          ///< stopped by crash_after_round
  std::size_t novel_total = 0;       ///< this call's novel fingerprints
  std::size_t duplicate_total = 0;   ///< this call's deduplicated signatures
  /// Accumulated detection result of round 0, exactly what a one-shot
  /// `hdiff run` over the bootstrap corpus returns (empty when round 0 was
  /// already committed before this call).
  core::DetectionResult bootstrap_findings;
  // ---- coverage totals (zeros when the campaign has no plan) ----
  bool coverage_enabled = false;
  bool coverage_weighting = false;
  std::size_t coverage_covered = 0;   ///< productions exercised
  std::size_t coverage_total = 0;     ///< productions in the plan
  std::size_t gap_sites_hit = 0;      ///< distinct gap sites hit
  std::size_t gap_sites_total = 0;    ///< gap sites in the plan
  /// Highest-ranked sites not yet hit (top 5, rank order) — the "where to
  /// aim next" list in `hdiff campaign status` and the JSON block.
  std::vector<analysis::GapSite> top_unhit;
  std::string error;  ///< non-empty = the campaign failed to run
};

/// Default mutation seeds: canonical requests exercising the framing,
/// routing, and caching surfaces the detectors watch.
std::vector<SeedSpec> default_campaign_seeds();

/// Signature of everything that must match for a checkpoint to be resumed:
/// seeds, bootstrap corpus, and budget.  Jobs and round count are excluded
/// on purpose (resuming with more rounds or different parallelism is
/// legitimate and changes nothing already committed).
std::string campaign_config_sig(const CampaignConfig& config);

// ---- round reentry hooks (shared by CampaignEngine::run and hdiff serve) --
//
// A round decomposes into three pure-ish stages:
//
//   plan_round       checkpoint -> deterministic case list (mutates the
//                    in-memory retry queue and arm cursors exactly as the
//                    classic loop did — commit publishes the mutation);
//   execute_round    case list -> per-case outcomes (no store access at
//                    all, so it can run in a sharded worker process against
//                    a read-only checkpoint copy);
//   integrate_round  outcomes -> findings / arm feedback / corpus growth
//                    (store-mutating; single writer).
//
// Because the plan is a pure function of the committed checkpoint and the
// config, a worker that loads the same checkpoint computes the *same* plan
// as its supervisor, executes only the case indices its shard owns, and
// ships back outcomes the supervisor merges in stable index order — byte-
// identical, by construction, to a single-process run.

/// One planned case with its deterministic bookkeeping.
struct PlannedCase {
  core::TestCase tc;
  std::string provenance;
  /// Arm this case's observation feeds back into; entry index == npos for
  /// bootstrap cases and unattributable replays.
  std::size_t arm_entry = static_cast<std::size_t>(-1);
  std::string arm_kind;
  /// Buildable form (empty spec_text = bootstrap case, wire bytes only).
  http::RequestSpec spec;
  std::string spec_text;
  /// Coverage attribution (empty when coverage is off or the case is a
  /// bootstrap/replay): production ids this mutant exercises and gap-site
  /// ids whose overlap class its injected payload intersects.
  std::vector<std::size_t> cov_ids;
  std::vector<std::size_t> gap_ids;
  /// Stream cases: `tc.stream` holds the per-message wires, so the
  /// executor observes the case via Chain::observe_stream and judges it
  /// with core::StreamDetector; `tc.raw` holds the concatenated wire (the
  /// shard key) and `spec_text` holds serialize_stream().
  bool is_stream = false;
  stream::RequestStream stream;
};

struct RoundPlan {
  std::vector<PlannedCase> cases;
  std::size_t replayed = 0;  ///< retry-queue replays at the head of `cases`
};

/// Plan round `round` from the loaded checkpoint.  Round 0 is the bootstrap
/// pass; later rounds replay the retry queue then spend the mutation
/// budget.  Mutates `store` in memory (retry queue drained, arm cursors
/// advanced) — nothing is published until commit_round.  Also extends the
/// store's derived arm tables (StateStore::entry_arms/stream_entry_arms)
/// to entries added since the last plan, and regenerates request variants
/// only for entries whose arms receive budget: a round costs its new
/// entries and its budgeted arms, not the whole corpus.  The plan is the
/// same whether the tables are warm or rebuilt from a fresh load.
RoundPlan plan_round(StateStore& store, const CampaignConfig& config,
                     std::size_t round);

/// What executing one planned case produced — everything integrate_round
/// needs, and small enough to ship across a process boundary (serve shard
/// result files).
struct CaseOutcome {
  bool executed = false;     ///< false = not run (another shard owns it)
  bool quarantined = false;  ///< faulted out; goes back to the retry queue
  std::vector<Signature> signatures;
};

struct ExecutedRound {
  /// One slot per planned case, index-aligned with the plan.
  std::vector<CaseOutcome> outcomes;
  /// Accumulated detection result of the executed cases (round 0's is the
  /// one-shot-equivalence proof); empty when a subset was executed.
  core::DetectionResult total;
  core::ExecutorStats stats;
};

/// Execute the planned cases (all of them, or only the indices in `subset`)
/// through the PR-1 executor with the campaign's caches and delta tap.
/// Store-free and side-effect-free apart from the caches.
ExecutedRound execute_round(const CampaignConfig& config,
                            const net::Chain& chain,
                            const std::vector<PlannedCase>& planned,
                            core::ObservationMemo* memo,
                            net::VerdictCache* verdicts,
                            const std::vector<std::size_t>* subset = nullptr);

/// Fingerprint, deduplicate, feed the scheduler arms, minimize and store
/// interesting mutants.  Every outcome must have `executed == true`.
/// Returns the round's accounting (novel/duplicate/quarantined/new_entries/
/// minimize_steps; round/cases/replayed are the caller's).  `chain`,
/// `memo` and `verdicts` serve the minimizer oracle.
RoundReport integrate_round(StateStore& store, const CampaignConfig& config,
                            std::size_t round,
                            const std::vector<PlannedCase>& planned,
                            const std::vector<CaseOutcome>& outcomes,
                            const net::Chain& chain,
                            core::ObservationMemo* memo,
                            net::VerdictCache* verdicts);

/// (Re-)register the config's mutation seeds as corpus entries; idempotent,
/// called on every fresh start (rounds_completed == 0).
void register_seed_entries(StateStore& store, const CampaignConfig& config);

/// Stream counterpart: register the config's stream seeds (or the
/// defaults) as stream-corpus entries.  No-op unless `config.streams`.
void register_stream_seed_entries(StateStore& store,
                                  const CampaignConfig& config);

/// Adopt the config's coverage plan into the store.  A checkpoint that
/// already carries a plan wins (resume byte-identity); a config without a
/// plan never erases one.  On a fresh adopt the bootstrap cone seeds the
/// covered set.  Called after init/load by open_campaign.
void adopt_coverage(StateStore& store, const CampaignConfig& config);

/// Open `store` for a writing run of `config`: take the writer lock, load
/// the checkpoint (refusing one made with another config signature) or init
/// a fresh one, register the seeds while no round is committed, and adopt
/// the coverage plan.  Shared by CampaignEngine::run and the serve
/// supervisor.  False with `*error` set on failure; `*resumed` is true when
/// an existing checkpoint was loaded.
bool open_campaign(StateStore& store, const CampaignConfig& config,
                   bool* resumed, std::string* error);

/// Fold one round's accounting into the hdiff_campaign_* metrics.
void emit_round_metrics(const obs::Observability& obs, const RoundReport& rr,
                        const StateStore& store);

class CampaignEngine {
 public:
  explicit CampaignEngine(CampaignConfig config);

  /// Run (or resume) the campaign against `fleet` until
  /// `config.rounds + 1` total rounds are committed.  On config-signature
  /// mismatch with an existing checkpoint, fails without touching it.
  CampaignReport run(
      const std::vector<std::unique_ptr<impls::HttpImplementation>>& fleet);

  /// Read-only view of an existing campaign state dir.
  static CampaignReport status(const std::string& state_dir);

  /// Re-minimize every mutant entry in an existing campaign (fixed-point
  /// check: a committed corpus accepts no further shrinking, so this
  /// reports steps but rewrites nothing).  Returns oracle steps taken and
  /// how many entries actually shrank (expected 0).
  struct MinimizeReport {
    std::size_t entries = 0;
    std::size_t steps = 0;
    std::size_t shrunk = 0;
    std::string error;
  };
  static MinimizeReport minimize_corpus(
      const std::string& state_dir,
      const std::vector<std::unique_ptr<impls::HttpImplementation>>& fleet);

 private:
  CampaignConfig config_;
};

/// Render a CampaignReport (plus store totals) as the `"campaign"` JSON
/// block written by `hdiff campaign ... --json`.
std::string campaign_report_json(const CampaignReport& report);

}  // namespace hdiff::campaign
