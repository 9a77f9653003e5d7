#include "campaign/engine.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "abnf/ast.h"
#include "campaign/fingerprint.h"
#include "campaign/scheduler.h"
#include "core/mutation.h"
#include "http/header_util.h"
#include "net/chain.h"
#include "report/json.h"
#include "stream/mutate.h"

namespace hdiff::campaign {
namespace {

/// Metric-name segment for a mutation kind ("repeat-header" -> in metric
/// names dashes become underscores, matching the pipeline's stage gauges).
std::string metric_segment(std::string_view kind) {
  std::string out;
  for (char c : kind) out += c == '-' ? '_' : c;
  return out;
}

/// All single-kind variants of a corpus entry, grouped by kind in
/// deterministic emission order.  `max_mutants` is lifted far above the
/// generation caps so the full operator surface is schedulable.
std::map<std::string, std::vector<core::Mutant>> variants_by_kind(
    const http::RequestSpec& spec, bool record_touched) {
  core::MutationOptions options;
  options.max_mutants = 4096;
  options.record_touched = record_touched;
  std::map<std::string, std::vector<core::Mutant>> grouped;
  for (auto& mutant : core::mutate(spec, options)) {
    const std::string kind(to_string(mutant.applied.front().kind));
    grouped[kind].push_back(std::move(mutant));
  }
  return grouped;
}

/// Production ids a mutant's touched rules map onto (sorted, deduplicated;
/// names outside the coverage cone are dropped).
std::vector<std::size_t> cov_ids_of(const analysis::CoveragePlan& plan,
                                    const core::Mutant& mutant) {
  std::set<std::size_t> ids;
  for (const auto& name : mutant.touched) {
    const std::size_t id = plan.id_of(abnf::normalize_rule_name(name));
    if (id != analysis::CoveragePlan::npos) ids.insert(id);
  }
  return {ids.begin(), ids.end()};
}

/// The bytes a mutation injects or rewrites — the probe the parser actually
/// sees changed.  Case variations and folds carry an empty descriptor
/// payload (their effect is a rewritten field), so the rewritten text is
/// read back out of the mutant spec instead.
std::string probe_bytes(const core::Mutant& mutant) {
  const core::AppliedMutation& m = mutant.applied.front();
  auto header_text = [&](bool name) -> std::string {
    for (const auto& h : mutant.spec.headers) {
      if (http::iequals(h.name, m.header)) return name ? h.name : h.value;
    }
    return {};
  };
  switch (m.kind) {
    case core::MutationKind::kNameCaseVariation:
      return header_text(true);
    case core::MutationKind::kValueCaseVariation:
    case core::MutationKind::kObsFoldValue:
      return header_text(false);
    case core::MutationKind::kBareLfTerminator:
      return "\n";
    default:
      return m.payload;
  }
}

/// Gap-site ids among `site_index[production]` whose overlap class the
/// mutant's probe bytes intersect (an empty probe hits nothing: the site is
/// about a concrete ambiguous byte reaching the parser).
std::vector<std::size_t> gap_ids_of(
    const analysis::CoveragePlan& plan,
    const std::map<std::size_t, std::vector<std::size_t>>& site_index,
    const std::vector<std::size_t>& cov_ids, const core::Mutant& mutant) {
  const std::string payload = probe_bytes(mutant);
  if (payload.empty()) return {};
  std::set<std::size_t> ids;
  for (std::size_t prod : cov_ids) {
    const auto it = site_index.find(prod);
    if (it == site_index.end()) continue;
    for (std::size_t site_id : it->second) {
      const analysis::GapSite& site = plan.sites[site_id];
      for (unsigned char byte : payload) {
        if (site.overlap.test(byte)) {
          ids.insert(site_id);
          break;
        }
      }
    }
  }
  return {ids.begin(), ids.end()};
}

std::string mutant_provenance(const std::string& entry_hash,
                              std::string_view kind) {
  return "mutant:" + entry_hash + ":" + std::string(kind);
}

std::string stream_mutant_provenance(const std::string& entry_hash,
                                     std::string_view kind) {
  return "stream-mutant:" + entry_hash + ":" + std::string(kind);
}

/// Stream seeds to use: config's, or the built-in defaults.  Resolved here
/// (not in the engine ctor) so config_sig, seed registration and the serve
/// worker's plan all agree without pre-normalizing the config.
const std::vector<stream::StreamSeed>& resolved_stream_seeds(
    const CampaignConfig& config) {
  return config.stream_seeds.empty() ? stream::default_stream_seeds()
                                     : config.stream_seeds;
}

/// A request entry's arm table: one row per MutationKind that has variants
/// for `spec`, in all_mutation_kinds() order, with the variant count and
/// (coverage on) the production ids those variants touch.  The variants
/// themselves are dropped here; plan_round rebuilds them only for the
/// entries that receive budget.
std::vector<RequestArm> request_arms_of(const http::RequestSpec& spec,
                                     const analysis::CoveragePlan& plan,
                                     bool cov) {
  std::map<std::string, std::vector<core::Mutant>> grouped =
      variants_by_kind(spec, cov);
  std::vector<RequestArm> arms;
  for (core::MutationKind kind : core::all_mutation_kinds()) {
    std::string kind_name(to_string(kind));
    const auto it = grouped.find(kind_name);
    if (it == grouped.end() || it->second.empty()) continue;
    RequestArm arm;
    arm.kind = std::move(kind_name);
    arm.variants = it->second.size();
    if (cov) {
      std::set<std::size_t> touched;
      for (const core::Mutant& m : it->second) {
        for (std::size_t id : cov_ids_of(plan, m)) touched.insert(id);
      }
      arm.cov_ids.assign(touched.begin(), touched.end());
    }
    arms.push_back(std::move(arm));
  }
  return arms;
}

/// A stream entry's arm table: its single-application mutants grouped by
/// kind, in all_stream_mutation_kinds() order, empty kinds omitted.
std::vector<StreamArm> stream_arms_of(const stream::RequestStream& s) {
  std::map<std::string, std::vector<stream::StreamMutant>> grouped;
  for (auto& mutant : stream::stream_mutants(s)) {
    const std::string kind(to_string(mutant.applied.kind));
    grouped[kind].push_back(std::move(mutant));
  }
  std::vector<StreamArm> arms;
  for (stream::StreamMutationKind kind : stream::all_stream_mutation_kinds()) {
    std::string kind_name(to_string(kind));
    const auto it = grouped.find(kind_name);
    if (it == grouped.end() || it->second.empty()) continue;
    arms.push_back({std::move(kind_name), std::move(it->second)});
  }
  return arms;
}

/// Canonical signature-set key used by the minimizer oracle ("does the
/// candidate still reproduce every original signature?").
std::set<std::string> canonical_set(const std::vector<Signature>& sigs) {
  std::set<std::string> out;
  for (const auto& s : sigs) out.insert(s.canonical());
  return out;
}

/// Parse "mutant:<hash>:<kind>" back into an arm for replay attribution.
bool parse_mutant_provenance(const std::string& prov, std::string* hash,
                             std::string* kind) {
  if (prov.rfind("mutant:", 0) != 0) return false;
  const std::size_t colon = prov.find(':', 7);
  if (colon == std::string::npos) return false;
  *hash = prov.substr(7, colon - 7);
  *kind = prov.substr(colon + 1);
  return !hash->empty() && !kind->empty();
}

/// Same for "stream-mutant:<hash>:<kind>".
bool parse_stream_mutant_provenance(const std::string& prov, std::string* hash,
                                    std::string* kind) {
  constexpr std::size_t kPrefix = 14;  // "stream-mutant:"
  if (prov.rfind("stream-mutant:", 0) != 0) return false;
  const std::size_t colon = prov.find(':', kPrefix);
  if (colon == std::string::npos) return false;
  *hash = prov.substr(kPrefix, colon - kPrefix);
  *kind = prov.substr(colon + 1);
  return !hash->empty() && !kind->empty();
}

}  // namespace

std::vector<SeedSpec> default_campaign_seeds() {
  std::vector<SeedSpec> seeds;
  seeds.push_back({"get", http::make_get("origin.example")});
  seeds.push_back(
      {"post", http::make_post("origin.example", "/submit", "payload=1")});
  seeds.push_back(
      {"chunked", http::make_chunked_post("origin.example", "/up", "data")});
  // The classic ambiguous-framing seed: Content-Length and Transfer-Encoding
  // on the same request, the surface most HRS vectors mutate around.
  {
    http::RequestSpec te_cl = http::make_post("origin.example", "/q", "0\r\n\r\n");
    te_cl.add("Transfer-Encoding", "chunked");
    seeds.push_back({"te-cl", std::move(te_cl)});
  }
  // Absolute-form target alongside a Host header (HoT surface).
  {
    http::RequestSpec absolute = http::make_get("origin.example");
    absolute.target = "http://origin.example/";
    seeds.push_back({"absolute", std::move(absolute)});
  }
  return seeds;
}

std::string campaign_config_sig(const CampaignConfig& config) {
  std::string acc = "campaign-config-v1";
  acc += "|budget=" + std::to_string(config.budget_per_round);
  acc += "|minimize=" + std::string(config.minimize_new ? "1" : "0");
  acc += "|minsteps=" + std::to_string(config.minimize.max_steps);
  const std::vector<SeedSpec> seeds =
      config.seeds.empty() ? default_campaign_seeds() : config.seeds;
  for (const auto& s : seeds) {
    acc += "|seed:" + s.name + ":" + content_address(s.spec);
  }
  for (const auto& tc : config.bootstrap) {
    acc += "|case:" + tc.uuid + ":" + hex64(tc.raw);
  }
  // Stream fields join the preimage only when the feature is on: a campaign
  // without streams keeps the exact signature it had before the stream
  // subsystem existed, so its state dirs resume untouched.
  if (config.streams) {
    acc += "|streams=1";
    acc += "|sbudget=" + std::to_string(config.stream_budget_per_round);
    for (const auto& s : resolved_stream_seeds(config)) {
      acc += "|sseed:" + s.name + ":" + stream_content_address(s.stream);
    }
  }
  return hex64(acc);
}

void register_seed_entries(StateStore& store, const CampaignConfig& config) {
  const std::vector<SeedSpec> seeds =
      config.seeds.empty() ? default_campaign_seeds() : config.seeds;
  for (const auto& s : seeds) {
    CorpusEntry entry;
    entry.hash = content_address(s.spec);
    entry.provenance = "seed:" + s.name;
    entry.spec = s.spec;
    store.add_entry(std::move(entry));
  }
}

void register_stream_seed_entries(StateStore& store,
                                  const CampaignConfig& config) {
  if (!config.streams) return;
  for (const auto& s : resolved_stream_seeds(config)) {
    StreamEntry entry;
    entry.hash = stream_content_address(s.stream);
    entry.provenance = "stream-seed:" + s.name;
    entry.stream = s.stream;
    store.add_stream_entry(std::move(entry));
  }
}

RoundPlan plan_round(StateStore& store, const CampaignConfig& config,
                     std::size_t round) {
  RoundPlan plan;
  std::vector<PlannedCase>& planned = plan.cases;
  if (round == 0) {
    for (const auto& tc : config.bootstrap) {
      PlannedCase pc;
      pc.tc = tc;
      pc.provenance = "seed:" + std::string(to_string(tc.origin));
      planned.push_back(std::move(pc));
    }
    return plan;
  }

  // Quarantine replays first (PR-2 integration): cases the fault layer
  // starved last round get another chance before new budget is spent.
  std::vector<RetryEntry> replays = std::move(store.retry_queue);
  store.retry_queue.clear();
  for (std::size_t i = 0; i < replays.size(); ++i) {
    RetryEntry& r = replays[i];
    PlannedCase pc;
    pc.tc.uuid =
        "camp-r" + std::to_string(round) + "-retry" + std::to_string(i);
    pc.tc.raw = r.raw;
    pc.tc.description = r.description;
    pc.tc.origin = core::TestOrigin::kMutation;
    pc.provenance = r.provenance;
    pc.spec_text = r.spec_text;
    std::string hash, kind;
    if (stream::is_stream_text(r.spec_text)) {
      // A quarantined stream case: rebuild the message structure so the
      // replay goes back through observe_stream, and re-attribute its arm
      // against the stream corpus.
      pc.is_stream = stream::deserialize_stream(r.spec_text, &pc.stream);
      if (pc.is_stream) pc.tc.stream = pc.stream.wires();
      if (parse_stream_mutant_provenance(r.provenance, &hash, &kind)) {
        const std::size_t e = store.stream_entry_index(hash);
        if (e != StateStore::npos) {
          pc.arm_entry = e;
          pc.arm_kind = kind;
        }
      }
    } else {
      if (!r.spec_text.empty()) deserialize_spec(r.spec_text, &pc.spec);
      if (parse_mutant_provenance(r.provenance, &hash, &kind)) {
        const std::size_t e = store.entry_index(hash);
        if (e != StateStore::npos) {
          pc.arm_entry = e;
          pc.arm_kind = kind;
        }
      }
    }
    ++plan.replayed;
    planned.push_back(std::move(pc));
  }

  // Divergence-feedback schedule over (entry x kind) arms.
  const bool cov = store.coverage_enabled();
  // site_index: production id -> gap-site ids, via each site's attribution
  // cone (a Transfer-Encoding mutation reaches the transfer-coding sites).
  std::map<std::size_t, std::vector<std::size_t>> site_index;
  if (cov) {
    for (const auto& site : store.coverage.sites) {
      for (std::size_t prod : site.related) {
        site_index[prod].push_back(site.id);
      }
    }
  }
  // Arm tables are built once per entry, the first round that sees it.
  for (std::size_t e = store.entry_arms.size(); e < store.entries.size();
       ++e) {
    store.entry_arms.push_back(
        request_arms_of(store.entries[e].spec, store.coverage, cov));
  }
  struct ArmPlan {
    std::size_t entry;
    const RequestArm* arm;
  };
  std::vector<ArmPlan> arm_plans;
  std::vector<ArmView> views;
  for (std::size_t e = 0; e < store.entries.size(); ++e) {
    for (const RequestArm& arm : store.entry_arms[e]) {
      const ArmStats& stats = arm_stats(store.arms, e, arm.kind);
      ArmView view;
      view.attempts = stats.attempts;
      view.novel = stats.novel;
      view.capacity = arm.variants;
      if (cov && store.coverage_weighting) {
        // Static-analysis bias: productions this arm would touch that are
        // still uncovered, and unhit gap sites among those productions.
        std::set<std::size_t> unhit_sites;
        for (std::size_t id : arm.cov_ids) {
          if (store.covered.count(id) == 0) ++view.uncovered;
          const auto sites = site_index.find(id);
          if (sites == site_index.end()) continue;
          for (std::size_t site_id : sites->second) {
            if (store.gap_hits.count(site_id) == 0) {
              unhit_sites.insert(site_id);
            }
          }
        }
        view.gap_hits = unhit_sites.size();
      }
      views.push_back(view);
      arm_plans.push_back({e, &arm});
    }
  }
  const std::vector<std::size_t> counts =
      allocate_budget(config.budget_per_round, views);
  // Variants are rebuilt only for entries that received budget; arm_plans
  // is entry-major, so each such entry is mutated once.
  std::size_t grouped_entry = StateStore::npos;
  std::map<std::string, std::vector<core::Mutant>> grouped;
  for (std::size_t a = 0; a < arm_plans.size(); ++a) {
    if (counts[a] == 0) continue;
    const std::size_t e = arm_plans[a].entry;
    const std::string& kind = arm_plans[a].arm->kind;
    if (e != grouped_entry) {
      grouped = variants_by_kind(store.entries[e].spec, cov);
      grouped_entry = e;
    }
    ArmStats& stats = store.arms[{e, kind}];
    const std::vector<core::Mutant>& variants = grouped.at(kind);
    for (std::size_t j = 0; j < counts[a]; ++j) {
      const core::Mutant& mutant =
          variants[(stats.cursor + j) % variants.size()];
      PlannedCase pc;
      pc.tc.uuid = "camp-r" + std::to_string(round) + "-" +
                   std::to_string(planned.size());
      pc.tc.raw = mutant.spec.to_wire();
      pc.tc.description = mutant.applied.front().describe();
      pc.tc.origin = core::TestOrigin::kMutation;
      pc.provenance = mutant_provenance(store.entries[e].hash, kind);
      pc.arm_entry = e;
      pc.arm_kind = kind;
      pc.spec = mutant.spec;
      pc.spec_text = serialize_spec(mutant.spec);
      if (cov) {
        pc.cov_ids = cov_ids_of(store.coverage, mutant);
        pc.gap_ids =
            gap_ids_of(store.coverage, site_index, pc.cov_ids, mutant);
      }
      planned.push_back(std::move(pc));
    }
    stats.cursor += counts[a];
  }

  // ---- stream shapes (src/stream) ------------------------------------------
  if (config.streams && !store.stream_entries.empty()) {
    // Round 1 observes every stream seed whole — the connection-level
    // bootstrap — so seed-representable divergences are filed before any
    // mutation budget is spent.
    if (round == 1) {
      for (const auto& entry : store.stream_entries) {
        if (entry.provenance.rfind("stream-seed:", 0) != 0) continue;
        PlannedCase pc;
        pc.tc.uuid = "camp-r" + std::to_string(round) + "-" +
                     std::to_string(planned.size());
        pc.tc.raw = entry.stream.to_wire();
        pc.tc.description = entry.provenance;
        pc.tc.origin = core::TestOrigin::kMutation;
        pc.provenance = entry.provenance;
        pc.is_stream = true;
        pc.stream = entry.stream;
        pc.tc.stream = entry.stream.wires();
        pc.spec_text = stream::serialize_stream(entry.stream);
        planned.push_back(std::move(pc));
      }
    }
    // Divergence-feedback schedule over (stream entry x stream kind) arms,
    // using the same deterministic apportionment as the single-request
    // budget but over its own arm table and its own budget.
    for (std::size_t e = store.stream_entry_arms.size();
         e < store.stream_entries.size(); ++e) {
      store.stream_entry_arms.push_back(
          stream_arms_of(store.stream_entries[e].stream));
    }
    struct StreamArmPlan {
      std::size_t entry;
      const StreamArm* arm;
    };
    std::vector<StreamArmPlan> sarm_plans;
    std::vector<ArmView> sviews;
    for (std::size_t e = 0; e < store.stream_entries.size(); ++e) {
      for (const StreamArm& arm : store.stream_entry_arms[e]) {
        const ArmStats& sstats = arm_stats(store.stream_arms, e, arm.kind);
        ArmView view;
        view.attempts = sstats.attempts;
        view.novel = sstats.novel;
        view.capacity = arm.variants.size();
        sviews.push_back(view);
        sarm_plans.push_back({e, &arm});
      }
    }
    const std::vector<std::size_t> scounts =
        allocate_budget(config.stream_budget_per_round, sviews);
    for (std::size_t a = 0; a < sarm_plans.size(); ++a) {
      if (scounts[a] == 0) continue;
      const std::size_t e = sarm_plans[a].entry;
      const StreamArm& arm = *sarm_plans[a].arm;
      ArmStats& sstats = store.stream_arms[{e, arm.kind}];
      for (std::size_t j = 0; j < scounts[a]; ++j) {
        const stream::StreamMutant& mutant =
            arm.variants[(sstats.cursor + j) % arm.variants.size()];
        PlannedCase pc;
        pc.tc.uuid = "camp-r" + std::to_string(round) + "-" +
                     std::to_string(planned.size());
        pc.tc.raw = mutant.stream.to_wire();
        pc.tc.description = mutant.applied.describe();
        pc.tc.origin = core::TestOrigin::kMutation;
        pc.provenance =
            stream_mutant_provenance(store.stream_entries[e].hash, arm.kind);
        pc.arm_entry = e;
        pc.arm_kind = arm.kind;
        pc.is_stream = true;
        pc.stream = mutant.stream;
        pc.tc.stream = mutant.stream.wires();
        pc.spec_text = stream::serialize_stream(mutant.stream);
        planned.push_back(std::move(pc));
      }
      sstats.cursor += scounts[a];
    }
  }
  return plan;
}

void adopt_coverage(StateStore& store, const CampaignConfig& config) {
  // The checkpoint's plan (or its recorded absence-after-adoption) wins:
  // re-adopting over live state would reset the covered set and break
  // resume byte-identity.  A config without a plan never erases one.
  if (store.coverage_enabled() || !config.coverage.enabled()) return;
  store.coverage = config.coverage;
  store.coverage_weighting = config.coverage_weighting;
  store.covered = config.coverage.bootstrap_covered;
  store.gap_hits.clear();
  // Arm tables built before the plan existed carry no production ids.
  store.entry_arms.clear();
}

ExecutedRound execute_round(const CampaignConfig& config,
                            const net::Chain& chain,
                            const std::vector<PlannedCase>& planned,
                            core::ObservationMemo* memo,
                            net::VerdictCache* verdicts,
                            const std::vector<std::size_t>* subset) {
  ExecutedRound out;
  out.outcomes.resize(planned.size());
  std::vector<std::size_t> index_map;
  if (subset != nullptr) {
    index_map = *subset;
  } else {
    index_map.resize(planned.size());
    std::iota(index_map.begin(), index_map.end(), std::size_t{0});
  }
  // Single-request and stream cases share the executor: scheduling,
  // RetryPolicy, quarantine into ExecutorStats, memo and the index-order
  // merge through on_delta are one path for both kinds.
  std::vector<core::TestCase> cases;
  cases.reserve(index_map.size());
  for (std::size_t idx : index_map) cases.push_back(planned[idx].tc);

  core::ExecutorConfig ec = config.executor;
  ec.shared_memo = memo;
  ec.shared_verdicts = verdicts;
  if (!ec.obs.enabled()) ec.obs = config.obs;
  ec.on_delta = [&](std::size_t index, const core::TestCase&,
                    const core::DetectionResult& delta, bool q) {
    CaseOutcome& oc = out.outcomes[index_map[index]];
    oc.executed = true;
    oc.quarantined = q;
    if (!q) oc.signatures = signatures_of(delta);
  };
  core::ParallelExecutor executor(ec);
  out.total = executor.run(chain, cases, &out.stats);
  return out;
}

RoundReport integrate_round(StateStore& store, const CampaignConfig& config,
                            std::size_t round,
                            const std::vector<PlannedCase>& planned,
                            const std::vector<CaseOutcome>& outcomes,
                            const net::Chain& chain,
                            core::ObservationMemo* memo,
                            net::VerdictCache* verdicts) {
  RoundReport rr;
  rr.round = round;
  rr.cases = planned.size();

  // Single-case replay used by the minimizer oracle.  Serial (jobs=1) and
  // memoized, so repeated candidates are cache hits.
  auto signatures_of_spec = [&](const http::RequestSpec& spec) {
    core::TestCase probe;
    probe.uuid = "camp-minimize-probe";
    probe.raw = spec.to_wire();
    probe.description = "minimizer probe";
    probe.origin = core::TestOrigin::kMutation;
    std::vector<Signature> sigs;
    bool quarantined = false;
    core::ExecutorConfig ec = config.executor;
    ec.jobs = 1;
    ec.shared_memo = memo;
    ec.shared_verdicts = verdicts;
    ec.obs = {};
    ec.on_delta = [&](std::size_t, const core::TestCase&,
                      const core::DetectionResult& delta, bool q) {
      quarantined = q;
      if (!q) sigs = signatures_of(delta);
    };
    core::ParallelExecutor executor(ec);
    executor.run(chain, {probe});
    return std::make_pair(std::move(sigs), quarantined);
  };

  for (std::size_t i = 0; i < planned.size(); ++i) {
    const PlannedCase& pc = planned[i];
    const CaseOutcome& oc = outcomes[i];
    // An unexecuted outcome (a shard-coverage hole, which the supervisor
    // prevents) degrades to quarantine semantics: the case goes back to the
    // retry queue instead of silently vanishing.
    if (oc.quarantined || !oc.executed) {
      ++rr.quarantined;
      store.retry_queue.push_back(
          {pc.provenance, pc.tc.raw, pc.spec_text, pc.tc.description});
      continue;
    }
    ArmStats* arm = nullptr;
    if (pc.arm_entry != static_cast<std::size_t>(-1)) {
      arm = pc.is_stream ? &store.stream_arms[{pc.arm_entry, pc.arm_kind}]
                         : &store.arms[{pc.arm_entry, pc.arm_kind}];
      ++arm->attempts;
    }
    // Coverage feedback: an executed (non-quarantined) case marks its
    // productions covered and its gap sites hit, whether or not it filed a
    // finding — the map measures exploration, not yield.
    for (std::size_t id : pc.cov_ids) store.covered.insert(id);
    for (std::size_t id : pc.gap_ids) ++store.gap_hits[id];
    bool interesting = false;
    for (const Signature& found : oc.signatures) {
      const std::string fp = fingerprint(found, pc.provenance);
      if (store.known_fingerprint(fp)) {
        ++rr.duplicate;
        continue;
      }
      Finding f;
      f.round = round;
      f.fingerprint = fp;
      f.detector = found.detector;
      f.vector = found.vector;
      f.provenance = pc.provenance;
      f.case_uuid = pc.tc.uuid;
      f.description = pc.tc.description;
      store.add_finding(std::move(f));
      ++rr.novel;
      interesting = true;
      if (arm) ++arm->novel;
      if (config.obs.metrics && !pc.arm_kind.empty()) {
        config.obs.metrics
            ->counter("hdiff_campaign_novel_" + metric_segment(pc.arm_kind) +
                      "_total")
            .add(1);
      }
    }
    // An interesting stream mutant joins the stream corpus unminimized:
    // the delta-debug minimizer's oracle replays single requests, and a
    // stream's interestingness lives in the relation *between* messages —
    // the drop-message operator is the stream-level shrinking move, applied
    // by later rounds through the arm scheduler instead.
    if (interesting && pc.is_stream) {
      const std::string hash = stream_content_address(pc.stream);
      if (!store.has_stream_entry(hash)) {
        StreamEntry entry;
        entry.hash = hash;
        entry.provenance = pc.provenance;
        entry.stream = pc.stream;
        store.add_stream_entry(std::move(entry));
        ++rr.new_entries;
      }
      continue;
    }
    // An interesting mutant becomes a new mutation seed: minimize it,
    // then store it content-addressed (idempotent on replay).
    if (interesting && !pc.spec_text.empty()) {
      http::RequestSpec stored = pc.spec;
      if (config.minimize_new) {
        const auto target = canonical_set(oc.signatures);
        auto oracle = [&](const http::RequestSpec& candidate) {
          auto [sigs, q] = signatures_of_spec(candidate);
          if (q) return false;
          const auto got = canonical_set(sigs);
          return std::includes(got.begin(), got.end(), target.begin(),
                               target.end());
        };
        MinimizeOutcome mo = minimize_spec(stored, oracle, config.minimize);
        rr.minimize_steps += mo.steps;
        if (config.obs.metrics) {
          config.obs.metrics->histogram("hdiff_campaign_minimize_steps")
              .observe(mo.steps);
        }
        stored = std::move(mo.spec);
      }
      const std::string hash = content_address(stored);
      if (!store.has_entry(hash)) {
        CorpusEntry entry;
        entry.hash = hash;
        entry.provenance = pc.provenance;
        entry.spec = std::move(stored);
        store.add_entry(std::move(entry));
        ++rr.new_entries;
      }
    }
  }
  rr.coverage_covered = store.covered.size();
  rr.gap_sites_hit = store.gap_hits.size();
  return rr;
}

bool open_campaign(StateStore& store, const CampaignConfig& config,
                   bool* resumed, std::string* error) {
  const std::string sig = campaign_config_sig(config);
  *resumed = false;
  // Writer lock first: two writers appending to one state dir would corrupt
  // the findings artifact; the loser gets a structured refusal instead.
  if (!store.acquire_lock()) {
    *error = store.error();
    return false;
  }
  if (store.exists()) {
    if (!store.load()) {
      *error = store.error();
      return false;
    }
    if (store.config_sig != sig) {
      *error = "config signature mismatch: state dir " + config.state_dir +
               " was created by a campaign with different "
               "seeds/bootstrap/budget (" +
               store.config_sig + " vs " + sig + ")";
      return false;
    }
    *resumed = true;
  } else if (!store.init(sig)) {
    *error = store.error();
    return false;
  }
  // Seed entries are (re-)registered on every fresh start: add_entry is
  // idempotent, and a crash before the round-0 commit leaves a checkpoint
  // with no entries, healed here on resume.
  if (store.rounds_completed == 0) {
    register_seed_entries(store, config);
    register_stream_seed_entries(store, config);
  }
  adopt_coverage(store, config);
  return true;
}

void emit_round_metrics(const obs::Observability& obs, const RoundReport& rr,
                        const StateStore& store) {
  if (!obs.metrics) return;
  auto& m = *obs.metrics;
  m.counter("hdiff_campaign_rounds_total").add(1);
  m.counter("hdiff_campaign_cases_total").add(rr.cases);
  m.counter("hdiff_campaign_novel_total").add(rr.novel);
  m.counter("hdiff_campaign_duplicate_total").add(rr.duplicate);
  m.counter("hdiff_campaign_quarantined_total").add(rr.quarantined);
  m.gauge("hdiff_campaign_corpus_entries")
      .set(static_cast<std::int64_t>(store.entries.size()));
  m.gauge("hdiff_campaign_findings")
      .set(static_cast<std::int64_t>(store.findings.size()));
  if (!store.stream_entries.empty()) {
    m.gauge("hdiff_campaign_stream_entries")
        .set(static_cast<std::int64_t>(store.stream_entries.size()));
  }
  if (store.coverage_enabled()) {
    m.gauge("hdiff_campaign_coverage_productions_covered")
        .set(static_cast<std::int64_t>(store.covered.size()));
    m.gauge("hdiff_campaign_coverage_productions_total")
        .set(static_cast<std::int64_t>(store.coverage.productions.size()));
    m.gauge("hdiff_campaign_coverage_gap_sites_hit")
        .set(static_cast<std::int64_t>(store.gap_hits.size()));
    m.gauge("hdiff_campaign_coverage_gap_sites_total")
        .set(static_cast<std::int64_t>(store.coverage.sites.size()));
  }
}

namespace {

/// Copy the store's coverage totals (and the top unhit sites) into a
/// report; shared by run()'s exit paths and status().
void fill_coverage_report(CampaignReport& report, const StateStore& store) {
  report.coverage_enabled = store.coverage_enabled();
  if (!report.coverage_enabled) return;
  report.coverage_weighting = store.coverage_weighting;
  report.coverage_covered = store.covered.size();
  report.coverage_total = store.coverage.productions.size();
  report.gap_sites_hit = store.gap_hits.size();
  report.gap_sites_total = store.coverage.sites.size();
  for (const auto& site : store.coverage.sites) {
    if (report.top_unhit.size() >= 5) break;
    if (store.gap_hits.count(site.id) == 0) report.top_unhit.push_back(site);
  }
}

}  // namespace

CampaignEngine::CampaignEngine(CampaignConfig config)
    : config_(std::move(config)) {
  if (config_.seeds.empty()) config_.seeds = default_campaign_seeds();
}

CampaignReport CampaignEngine::run(
    const std::vector<std::unique_ptr<impls::HttpImplementation>>& fleet) {
  CampaignReport report;
  StateStore store(config_.state_dir);
  if (!open_campaign(store, config_, &report.resumed, &report.error)) {
    return report;
  }

  net::Chain chain = net::Chain::from_fleet(fleet);
  // Cross-round caches: a mutant re-scheduled in a later round (or replayed
  // by the minimizer) costs a hash lookup instead of a chain observation.
  core::ObservationMemo memo;
  net::VerdictCache verdicts;

  const std::size_t total_rounds = config_.rounds + 1;
  for (std::size_t round = store.rounds_completed; round < total_rounds;
       ++round) {
    obs::Span round_span(config_.obs.trace, "campaign:round", "campaign");
    if (config_.obs.trace) {
      round_span.arg("round", std::to_string(round));
    }

    RoundPlan plan = plan_round(store, config_, round);
    ExecutedRound executed =
        execute_round(config_, chain, plan.cases, &memo, &verdicts);
    if (round == 0) report.bootstrap_findings = std::move(executed.total);

    RoundReport rr = integrate_round(store, config_, round, plan.cases,
                                     executed.outcomes, chain, &memo,
                                     &verdicts);
    rr.replayed = plan.replayed;
    emit_round_metrics(config_.obs, rr, store);
    report.rounds.push_back(rr);
    report.novel_total += rr.novel;
    report.duplicate_total += rr.duplicate;

    // ---- checkpoint ------------------------------------------------------
    // commit_round appends the round's log records and findings lines,
    // then renames the checkpoint: the rename is the commit point.  The
    // crash hook stops exactly between the two — the worst window — which
    // load() heals by cutting the log and the artifact back to the
    // checkpoint.
    if (config_.crash_after_round == static_cast<int>(round)) {
      if (!store.write_staged()) {
        report.error = store.error();
        return report;
      }
      report.interrupted = true;
      report.rounds_completed = store.rounds_completed;
      report.total_findings = store.findings.size();
      report.corpus_entries = store.entries.size();
      report.stream_entries = store.stream_entries.size();
      report.retry_depth = store.retry_queue.size();
      fill_coverage_report(report, store);
      return report;
    }
    if (!store.commit_round(round)) {
      report.error = store.error();
      return report;
    }
  }

  report.rounds_completed = store.rounds_completed;
  report.total_findings = store.findings.size();
  report.corpus_entries = store.entries.size();
  report.stream_entries = store.stream_entries.size();
  report.retry_depth = store.retry_queue.size();
  fill_coverage_report(report, store);
  return report;
}

CampaignReport CampaignEngine::status(const std::string& state_dir) {
  CampaignReport report;
  StateStore store(state_dir);
  if (!store.exists()) {
    report.error = "no campaign state at " + state_dir;
    return report;
  }
  // Read-only on purpose: status may be asked about a *live* state dir (a
  // serve supervisor mid-round); load()'s findings heal would race the
  // owner's appends.
  if (!store.load_readonly()) {
    report.error = store.error();
    return report;
  }
  report.rounds_completed = store.rounds_completed;
  report.total_findings = store.findings.size();
  report.corpus_entries = store.entries.size();
  report.stream_entries = store.stream_entries.size();
  report.retry_depth = store.retry_queue.size();
  for (std::size_t r = 0; r < store.rounds_completed; ++r) {
    RoundReport rr;
    rr.round = r;
    for (const auto& f : store.findings) {
      if (f.round == r) ++rr.novel;
    }
    report.rounds.push_back(rr);
    report.novel_total += rr.novel;
  }
  fill_coverage_report(report, store);
  return report;
}

CampaignEngine::MinimizeReport CampaignEngine::minimize_corpus(
    const std::string& state_dir,
    const std::vector<std::unique_ptr<impls::HttpImplementation>>& fleet) {
  MinimizeReport report;
  StateStore store(state_dir);
  if (!store.load_readonly()) {
    report.error = store.error();
    return report;
  }
  net::Chain chain = net::Chain::from_fleet(fleet);
  core::ObservationMemo memo;
  net::VerdictCache verdicts;
  core::DetectionEngine engine;
  auto signatures_of_spec = [&](const http::RequestSpec& spec) {
    const std::string raw = spec.to_wire();
    const net::ChainObservation* cached = memo.find(raw);
    core::TestCase probe;
    probe.uuid = "camp-minimize-probe";
    probe.raw = raw;
    probe.origin = core::TestOrigin::kMutation;
    if (cached == nullptr) {
      cached = memo.insert(
          raw, chain.observe(probe.uuid, raw, /*echo=*/nullptr, &verdicts));
    }
    if (cached->faulted())
      return std::make_pair(std::vector<Signature>{}, true);
    return std::make_pair(signatures_of(engine.evaluate(probe, *cached)),
                          false);
  };
  for (const auto& entry : store.entries) {
    if (entry.provenance.rfind("mutant:", 0) != 0) continue;
    ++report.entries;
    auto [target_sigs, faulted] = signatures_of_spec(entry.spec);
    if (faulted || target_sigs.empty()) continue;
    const auto target = canonical_set(target_sigs);
    auto oracle = [&](const http::RequestSpec& candidate) {
      auto [sigs, q] = signatures_of_spec(candidate);
      if (q) return false;
      const auto got = canonical_set(sigs);
      return std::includes(got.begin(), got.end(), target.begin(),
                           target.end());
    };
    MinimizeOutcome mo = minimize_spec(entry.spec, oracle);
    report.steps += mo.steps;
    if (mo.accepted > 0) ++report.shrunk;
  }
  return report;
}

std::string campaign_report_json(const CampaignReport& report) {
  report::JsonWriter w;
  w.begin_object();
  w.key("campaign").begin_object();
  w.key("rounds_completed")
      .value(static_cast<std::uint64_t>(report.rounds_completed));
  w.key("findings").value(static_cast<std::uint64_t>(report.total_findings));
  w.key("corpus_entries")
      .value(static_cast<std::uint64_t>(report.corpus_entries));
  w.key("stream_entries")
      .value(static_cast<std::uint64_t>(report.stream_entries));
  w.key("retry_depth").value(static_cast<std::uint64_t>(report.retry_depth));
  w.key("resumed").value(report.resumed);
  w.key("interrupted").value(report.interrupted);
  w.key("novel").value(static_cast<std::uint64_t>(report.novel_total));
  w.key("duplicate").value(static_cast<std::uint64_t>(report.duplicate_total));
  const std::size_t signatures = report.novel_total + report.duplicate_total;
  w.key("dedup_ratio")
      .value(signatures == 0 ? 0.0
                             : static_cast<double>(report.duplicate_total) /
                                   static_cast<double>(signatures));
  w.key("coverage").begin_object();
  w.key("enabled").value(report.coverage_enabled);
  w.key("weighting").value(report.coverage_weighting);
  w.key("productions_covered")
      .value(static_cast<std::uint64_t>(report.coverage_covered));
  w.key("productions_total")
      .value(static_cast<std::uint64_t>(report.coverage_total));
  w.key("gap_sites_hit")
      .value(static_cast<std::uint64_t>(report.gap_sites_hit));
  w.key("gap_sites_total")
      .value(static_cast<std::uint64_t>(report.gap_sites_total));
  w.key("top_unhit").begin_array();
  for (const auto& site : report.top_unhit) {
    w.begin_object();
    w.key("id").value(static_cast<std::uint64_t>(site.id));
    w.key("rule").value(site.rule);
    w.key("alternatives").begin_array();
    w.value(static_cast<std::uint64_t>(site.alt_a));
    w.value(static_cast<std::uint64_t>(site.alt_b));
    w.end_array();
    w.key("kind").value(site.kind == 'b' ? "byte-overlap" : "first-overlap");
    w.key("rank").value(static_cast<std::uint64_t>(site.rank));
    w.key("overlap").value(analysis::format_byte_class(site.overlap));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("rounds").begin_array();
  for (const auto& rr : report.rounds) {
    w.begin_object();
    w.key("round").value(static_cast<std::uint64_t>(rr.round));
    w.key("cases").value(static_cast<std::uint64_t>(rr.cases));
    w.key("replayed").value(static_cast<std::uint64_t>(rr.replayed));
    w.key("novel").value(static_cast<std::uint64_t>(rr.novel));
    w.key("duplicate").value(static_cast<std::uint64_t>(rr.duplicate));
    w.key("quarantined").value(static_cast<std::uint64_t>(rr.quarantined));
    w.key("new_entries").value(static_cast<std::uint64_t>(rr.new_entries));
    w.key("minimize_steps")
        .value(static_cast<std::uint64_t>(rr.minimize_steps));
    if (report.coverage_enabled) {
      w.key("coverage_covered")
          .value(static_cast<std::uint64_t>(rr.coverage_covered));
      w.key("gap_sites_hit")
          .value(static_cast<std::uint64_t>(rr.gap_sites_hit));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace hdiff::campaign
