// bench_e2e — the measuring half of the end-to-end benchmark (README.md).
//
// Runs one workload closed-loop (one caller; the next unit of work starts
// only after the previous one returned) for a fixed measuring window and
// prints one JSON object of raw measurements on its last stdout line:
// integer-microsecond unit walls, case and finding counts, correctness-gate
// results, peak RSS, host facts, and with --trace 1 the raw per-layer data.
// perfbench/run.py turns that into the named metrics.
//
//   oneshot   core::Pipeline::run, the paper's pipeline (`hdiff run`)
//   campaign  campaign::CampaignEngine::run with streams (`hdiff campaign`)
//   serve     serve::Supervisor::run over forked workers (`hdiff serve`)
//
// Every layer is timed from outside, through its public functions; the
// benchmark's own spans go into the same obs::TraceSink as the program's
// case/chain spans, so one Chrome trace holds both.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "abnf/generator.h"
#include "analysis/coverage.h"
#include "campaign/engine.h"
#include "campaign/store.h"
#include "core/abnf_testgen.h"
#include "core/analyzer.h"
#include "core/export.h"
#include "core/hdiff.h"
#include "corpus/registry.h"
#include "http/serialize.h"
#include "impls/products.h"
#include "net/chain.h"
#include "obs/obs.h"
#include "report/json.h"
#include "serve/flight.h"
#include "serve/introspect.h"
#include "serve/supervisor.h"
#include "stream/model.h"
#include "stream/seeds.h"

namespace {

namespace fs = std::filesystem;
using hdiff::report::JsonWriter;
using Fleet = std::vector<std::unique_ptr<hdiff::impls::HttpImplementation>>;

// ---- host facts ----------------------------------------------------------

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                    \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifndef HDIFF_BENCH_COMPILER
#define HDIFF_BENCH_COMPILER "unknown"
#endif

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// ---- small helpers -------------------------------------------------------

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

std::uint64_t peak_rss_kb(bool with_children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  long peak = self.ru_maxrss;
  if (with_children) {
    rusage kids{};
    ::getrusage(RUSAGE_CHILDREN, &kids);
    peak = std::max(peak, kids.ru_maxrss);
  }
  return static_cast<std::uint64_t>(peak);
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string hex32(std::uint64_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", static_cast<unsigned>(v));
  return buf;
}

// ---- arguments -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< test-sized workloads (perfbench/test_perfbench.py)
  std::string out_dir = ".";
  std::string hdiff_bin;  ///< the built `hdiff` CLI (serve worker binary)
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args->trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--out-dir" && has_value) {
      args->out_dir = argv[++i];
    } else if (a == "--hdiff" && has_value) {
      args->hdiff_bin = argv[++i];
    } else if (a == "--tiny") {
      args->tiny = true;
    } else {
      std::fprintf(stderr, "bench_e2e: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  return args->workload == "oneshot" || args->workload == "campaign" ||
         args->workload == "serve";
}

// ---- what every workload reports -----------------------------------------

struct Result {
  std::vector<std::uint64_t> setup_us;
  std::vector<std::uint64_t> work_us;  ///< one per fixed-size call
  std::vector<std::uint64_t> unit_us;  ///< latency samples (see README)
  std::uint64_t cases = 0;             ///< executed in the timed calls
  std::set<std::size_t> findings;      ///< distinct per-call finding counts
  std::uint64_t quarantined = 0;
  std::uint64_t checks = 0;
  std::vector<std::string> check_failures;
  std::uint64_t peak_rss_kb = 0;
  /// Raw per-layer data (--trace 1), pre-rendered JSON members.
  JsonWriter traced;

  void check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) check_failures.push_back(what);
  }
};

/// Closed loop over a measuring window: unit `i` starts only after unit
/// `i - 1` returned, and no unit starts once `seconds` have passed (at
/// least one always runs).
template <class Unit>
void closed_loop(double seconds, Unit&& unit) {
  const std::uint64_t t0 = now_us();
  const auto window = static_cast<std::uint64_t>(seconds * 1e6);
  std::size_t i = 0;
  do {
    unit(i++);
  } while (now_us() - t0 < window);
}

void write_hist(JsonWriter& w, const char* key, const hdiff::obs::Registry& r,
                const std::string& name) {
  w.key(key).begin_object();
  for (const auto& row : r.snapshot().histograms) {
    if (row.name != name) continue;
    w.key("count").value(row.count);
    w.key("sum").value(row.sum);
    w.key("p50").value(row.p50);
    w.key("p99").value(row.p99);
  }
  w.end_object();
}

void write_chain_hists(JsonWriter& w, const hdiff::obs::Registry& r) {
  w.key("hist").begin_object();
  write_hist(w, "case", r, "hdiff_executor_case_micros");
  write_hist(w, "observe", r, "hdiff_chain_observe_micros");
  write_hist(w, "forward", r, "hdiff_chain_forward_micros");
  write_hist(w, "replay", r, "hdiff_chain_replay_micros");
  write_hist(w, "direct", r, "hdiff_chain_direct_micros");
  write_hist(w, "stream", r, "hdiff_stream_observe_micros");
  w.end_object();
}

struct CacheCounts {
  std::uint64_t memo_hits = 0, memo_misses = 0;
  std::uint64_t verdict_hits = 0, verdict_misses = 0;
  void add(const hdiff::core::ExecutorStats& s) {
    memo_hits += s.memo_hits;
    memo_misses += s.memo_misses;
    verdict_hits += s.verdict_hits;
    verdict_misses += s.verdict_misses;
  }
  void write(JsonWriter& w) const {
    w.key("memo_hits").value(memo_hits);
    w.key("memo_misses").value(memo_misses);
    w.key("verdict_hits").value(verdict_hits);
    w.key("verdict_misses").value(verdict_misses);
  }
};

void write_trace(const Args& args, const hdiff::obs::TraceSink& sink,
                 JsonWriter& w) {
  const std::string path =
      (fs::path(args.out_dir) / ("trace_" + args.workload + ".json")).string();
  if (write_file(path, sink.render_chrome_json())) {
    w.key("trace_file").value(path);
  }
}

// ---- oneshot: hdiff run ----------------------------------------------------

/// The findings part of `hdiff run --json`: the export minus the stage
/// timings and the executor's throughput counters, which legitimately
/// differ between runs and between jobs/memoize settings.
std::string findings_json(hdiff::core::PipelineResult& result) {
  hdiff::core::ExecutorStats kept;
  const auto& s = result.exec_stats;
  kept.faulted_attempts = s.faulted_attempts;
  kept.retry_attempts = s.retry_attempts;
  kept.recovered_cases = s.recovered_cases;
  kept.quarantined_cases = s.quarantined_cases;
  kept.fault_counts = s.fault_counts;
  kept.quarantined = s.quarantined;
  result.exec_stats = std::move(kept);
  result.stage_timings.clear();
  return hdiff::core::export_json(result);
}

std::size_t finding_count(const hdiff::core::DetectionResult& f) {
  return f.violations.size() + f.pairs.size() +
         f.discrepancies.inputs_with_discrepancy;
}

hdiff::core::PipelineConfig oneshot_config(const Args& args) {
  hdiff::core::PipelineConfig config;
  config.executor.jobs = nproc();
  if (args.tiny) config.abnf_run_budget = 64;
  return config;
}

void run_oneshot(const Args& args, Result& res) {
  const hdiff::core::PipelineConfig config = oneshot_config(args);
  // Set-up: the fleet build plus one untimed warm-up run (lazy statics,
  // allocator arenas, first-touch page faults), repeated; median reported.
  Fleet fleet;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = now_us();
    fleet = hdiff::impls::make_all_implementations();
    const hdiff::core::Pipeline warm_up(config);
    warm_up.run(fleet);
    res.setup_us.push_back(now_us() - t0);
  }

  std::string first_json;
  std::size_t mismatched = 0;
  // One timed pipeline run, then (clock stopped) its accounting and the
  // determinism gate over its findings JSON.
  const auto unit = [&](const hdiff::core::PipelineConfig& cfg,
                        CacheCounts* caches, JsonWriter* stages) {
    const hdiff::core::Pipeline pipeline(cfg);
    const std::uint64_t t0 = now_us();
    hdiff::core::PipelineResult r = pipeline.run(fleet);
    const std::uint64_t dt = now_us() - t0;
    res.cases += r.exec_stats.cases;
    res.quarantined += r.exec_stats.quarantined_cases;
    res.findings.insert(finding_count(r.findings));
    if (caches) caches->add(r.exec_stats);
    if (stages) {
      stages->begin_object();
      for (const auto& st : r.stage_timings) {
        stages->key(st.stage).value(st.micros);
      }
      stages->end_object();
    }
    const std::string json = findings_json(r);
    if (first_json.empty()) {
      first_json = json;
    } else if (json != first_json) {
      ++mismatched;
    }
    return dt;
  };

  if (!args.trace) {
    closed_loop(args.seconds, [&](std::size_t) {
      const std::uint64_t dt = unit(config, nullptr, nullptr);
      res.work_us.push_back(dt);
      res.unit_us.push_back(dt);
    });
  } else {
    // Untraced and traced runs alternate; the traced ones share one
    // registry (histograms pool over every traced run).
    hdiff::obs::Registry registry;
    std::unique_ptr<hdiff::obs::TraceSink> sink;
    CacheCounts caches;
    JsonWriter pairs, stages;
    pairs.begin_array();
    stages.begin_array();
    closed_loop(args.seconds, [&](std::size_t) {
      const std::uint64_t plain = unit(config, nullptr, nullptr);
      res.work_us.push_back(plain);
      res.unit_us.push_back(plain);

      sink = std::make_unique<hdiff::obs::TraceSink>();
      hdiff::core::PipelineConfig traced = config;
      traced.obs.metrics = &registry;
      traced.obs.trace = sink.get();
      const std::uint64_t span_start = sink->now();
      const std::uint64_t dt = unit(traced, &caches, &stages);
      sink->complete("bench:oneshot.pipeline_run", "bench", span_start, dt);
      pairs.begin_object().key("untraced_us").value(plain);
      pairs.key("traced_us").value(dt).end_object();
    });
    pairs.end_array();
    stages.end_array();
    JsonWriter& w = res.traced;
    w.key("pairs").raw(pairs.str());
    w.key("stages").raw(stages.str());
    w.key("jobs").value(config.executor.jobs);
    caches.write(w);
    write_chain_hists(w, registry);
    write_trace(args, *sink, w);
  }
  res.peak_rss_kb = peak_rss_kb(false);

  // Correctness gate, outside the timed region: every run above produced
  // the same findings JSON, and that JSON is the serial, memo-free one.
  res.check(mismatched == 0,
            std::to_string(mismatched) + " run(s) changed findings JSON");
  hdiff::core::PipelineConfig reference = config;
  reference.executor.jobs = 1;
  reference.executor.memoize = false;
  std::string ref_json;
  const hdiff::core::Pipeline ref_pipeline(reference);
  hdiff::core::PipelineResult ref = ref_pipeline.run(fleet);
  ref_json = findings_json(ref);
  res.check(ref_json == first_json,
            "findings JSON differs from the jobs=1, memoize=false reference");
}

// ---- campaign + serve shared inputs --------------------------------------

/// The inputs `hdiff campaign run` / `hdiff serve` derive from the built-in
/// RFC corpus (tools/hdiff_cli.cpp: one_shot_corpus, campaign_coverage_plan):
/// the one-shot case list as round 0, and the coverage plan with the
/// bootstrap cone seeded.
struct CampaignInputs {
  std::vector<hdiff::core::TestCase> bootstrap;
  hdiff::analysis::CoveragePlan coverage;
  std::vector<hdiff::core::StageTiming> bootstrap_stages;
};

CampaignInputs build_campaign_inputs() {
  CampaignInputs in;
  {
    const hdiff::core::Pipeline pipeline;
    const Fleet empty;
    hdiff::core::PipelineResult r = pipeline.run(empty);
    in.bootstrap = std::move(r.executed_cases);
    in.bootstrap_stages = std::move(r.stage_timings);
  }
  hdiff::core::DocumentationAnalyzer analyzer;
  auto analysis = analyzer.analyze(hdiff::corpus::http_core_documents());
  std::vector<std::string> roots{"http-message"};
  for (const auto& target : hdiff::core::default_abnf_targets()) {
    roots.push_back(target.rule);
  }
  in.coverage = hdiff::analysis::build_coverage_plan(analysis.grammar, roots);
  hdiff::abnf::Generator gen(analysis.grammar);
  hdiff::abnf::load_default_http_predefined(gen);
  std::set<std::string> tapped;
  gen.set_coverage_tap(&tapped);
  for (const auto& target : hdiff::core::default_abnf_targets()) {
    gen.enumerate(target.rule, 64);
  }
  gen.set_coverage_tap(nullptr);
  for (const auto& name : tapped) {
    const std::size_t id = in.coverage.id_of(name);
    if (id != hdiff::analysis::CoveragePlan::npos) {
      in.coverage.bootstrap_covered.insert(id);
    }
  }
  return in;
}

/// Set-up shared by campaign and serve, repeated `reps` times (the median
/// is reported): fleet build, bootstrap corpus, coverage plan.
CampaignInputs campaign_setup(Fleet* fleet, Result& res, int reps) {
  CampaignInputs in;
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t t0 = now_us();
    *fleet = hdiff::impls::make_all_implementations();
    in = build_campaign_inputs();
    res.setup_us.push_back(now_us() - t0);
  }
  return in;
}

void write_setup_stages(JsonWriter& w, const CampaignInputs& in) {
  w.key("stages").begin_array().begin_object();
  for (const auto& st : in.bootstrap_stages) w.key(st.stage).value(st.micros);
  w.end_object().end_array();
}

struct CampaignSizes {
  std::size_t rounds;
  std::size_t budget;
  std::size_t stream_budget;
};

CampaignSizes campaign_sizes(const Args& args) {
  if (args.tiny) return {2, 16, 16};
  if (args.workload == "serve") return {8, 96, 16};
  return {12, 96, 384};
}

hdiff::campaign::CampaignConfig campaign_config(const CampaignInputs& in,
                                                const CampaignSizes& sizes,
                                                const std::string& dir) {
  hdiff::campaign::CampaignConfig c;
  c.state_dir = dir;
  c.rounds = sizes.rounds;
  c.budget_per_round = sizes.budget;
  c.bootstrap = in.bootstrap;
  c.coverage = in.coverage;
  return c;
}

/// The seed-derived part of the campaign workload: two extra mutation seeds
/// and one extra stream seed whose targets and bodies come from `seed`, on
/// top of the built-in seeds.
void add_seeded_inputs(hdiff::campaign::CampaignConfig& c, std::uint64_t seed) {
  namespace http = hdiff::http;
  constexpr std::string_view kHost = "origin.example";
  std::uint64_t state = seed;
  c.seeds = hdiff::campaign::default_campaign_seeds();
  const std::string a = hex32(splitmix64(state));
  const std::string b = hex32(splitmix64(state));
  http::RequestSpec get = http::make_get(kHost, "/b/" + a);
  get.add("X-Bench-Seed", a);
  c.seeds.push_back({"bench-get-" + a, std::move(get)});
  c.seeds.push_back(
      {"bench-post-" + b, http::make_post(kHost, "/b/" + b, "k=" + b)});
  c.stream_seeds = hdiff::stream::default_stream_seeds();
  const std::string s = hex32(splitmix64(state));
  c.stream_seeds.push_back(
      {"bench-pipeline-" + s,
       hdiff::stream::make_stream({http::make_post(kHost, "/b/" + s, "k=" + s),
                                   http::make_get(kHost, "/b/" + s + "/next")})});
}

/// The bytes the campaign gates compare.
struct StateBytes {
  std::string state;
  std::string findings;
  bool operator==(const StateBytes&) const = default;
};

StateBytes state_bytes(const std::string& dir) {
  const hdiff::campaign::StateStore store(dir);
  return {read_file(store.state_path()), read_file(store.findings_path())};
}

// ---- campaign: hdiff campaign run --streams --------------------------------

struct RoundRecord {
  std::size_t unit = 0, round = 0;
  /// Store open, seed registration, coverage adoption and chain build;
  /// nonzero on round 0 only, which they precede.
  std::uint64_t open_us = 0;
  /// Teardown of the caches, chain and store; nonzero on the last round
  /// only, which it follows.
  std::uint64_t close_us = 0;
  std::uint64_t plan_us = 0, execute_us = 0, integrate_us = 0, commit_us = 0;
  std::uint64_t round_us = 0;
  std::size_t cases = 0, stream_cases = 0, corpus_entries = 0;
  std::size_t minimize_steps = 0, novel = 0, duplicate = 0, quarantined = 0;
  std::uint64_t state_bytes = 0;
};

/// CampaignEngine::run decomposed into its public round hooks, with a
/// benchmark span around each phase: open, then plan, execute, integrate
/// and commit per round, then close (the teardown of what open built).  Produces the same state bytes as the
/// engine (the campaign gate checks this).
bool run_hooked(const hdiff::campaign::CampaignConfig& config,
                const Fleet& fleet, hdiff::obs::TraceSink* sink,
                std::size_t unit, std::vector<RoundRecord>* records,
                CacheCounts* caches, std::string* error) {
  namespace campaign = hdiff::campaign;
  const std::uint64_t open_start = now_us();
  const std::uint64_t open_span_start = sink ? sink->now() : 0;
  std::uint64_t close_start = 0, close_span_start = 0;
  {
    campaign::StateStore store(config.state_dir);
    if (!store.acquire_lock() || !store.init(campaign_config_sig(config))) {
      *error = store.error();
      return false;
    }
    campaign::register_seed_entries(store, config);
    campaign::register_stream_seed_entries(store, config);
    campaign::adopt_coverage(store, config);
    const hdiff::net::Chain chain = hdiff::net::Chain::from_fleet(fleet);
    hdiff::core::ObservationMemo memo;
    hdiff::net::VerdictCache verdicts;
    const std::uint64_t open_us = now_us() - open_start;
    if (sink) {
      sink->complete("bench:campaign.open", "bench", open_span_start,
                     sink->now() - open_span_start);
    }

    for (std::size_t round = 0; round < config.rounds + 1; ++round) {
      RoundRecord rec;
      rec.unit = unit;
      rec.round = round;
      if (round == 0) rec.open_us = open_us;
      const std::uint64_t t0 = now_us();
      hdiff::obs::Span round_span(sink, "bench:campaign.round", "bench");
      campaign::RoundPlan plan;
      {
        hdiff::obs::Span span(sink, "bench:campaign.plan", "bench");
        plan = campaign::plan_round(store, config, round);
      }
      const std::uint64_t t1 = now_us();
      campaign::ExecutedRound executed;
      {
        hdiff::obs::Span span(sink, "bench:campaign.execute", "bench");
        executed = campaign::execute_round(config, chain, plan.cases, &memo,
                                           &verdicts);
      }
      const std::uint64_t t2 = now_us();
      campaign::RoundReport rr;
      {
        hdiff::obs::Span span(sink, "bench:campaign.integrate", "bench");
        rr = campaign::integrate_round(store, config, round, plan.cases,
                                       executed.outcomes, chain, &memo,
                                       &verdicts);
        rr.replayed = plan.replayed;
        campaign::emit_round_metrics(config.obs, rr, store);
      }
      const std::uint64_t t3 = now_us();
      bool committed = false;
      {
        hdiff::obs::Span span(sink, "bench:campaign.commit", "bench");
        committed = store.commit_round(round);
      }
      const std::uint64_t t4 = now_us();
      if (!committed) {
        *error = store.error();
        return false;
      }
      rec.plan_us = t1 - t0;
      rec.execute_us = t2 - t1;
      rec.integrate_us = t3 - t2;
      rec.commit_us = t4 - t3;
      rec.round_us = t4 - t0;
      rec.cases = rr.cases;
      for (const auto& pc : plan.cases) {
        rec.stream_cases += pc.is_stream ? 1 : 0;
      }
      rec.corpus_entries = store.entries.size() + store.stream_entries.size();
      rec.minimize_steps = rr.minimize_steps;
      rec.novel = rr.novel;
      rec.duplicate = rr.duplicate;
      rec.quarantined = rr.quarantined;
      std::error_code ec;
      rec.state_bytes = fs::file_size(store.state_path(), ec);
      if (records) records->push_back(rec);
      if (caches) caches->add(executed.stats);
    }
    close_start = now_us();
    close_span_start = sink ? sink->now() : 0;
  }
  if (sink) {
    sink->complete("bench:campaign.close", "bench", close_span_start,
                   sink->now() - close_span_start);
  }
  if (records && !records->empty()) {
    records->back().close_us = now_us() - close_start;
  }
  return true;
}

void write_rounds(JsonWriter& w, const std::vector<RoundRecord>& records) {
  w.key("rounds").begin_array();
  for (const RoundRecord& r : records) {
    w.begin_object();
    w.key("unit").value(r.unit).key("round").value(r.round);
    w.key("open_us").value(r.open_us).key("close_us").value(r.close_us);
    w.key("plan_us").value(r.plan_us).key("execute_us").value(r.execute_us);
    w.key("integrate_us").value(r.integrate_us);
    w.key("commit_us").value(r.commit_us).key("round_us").value(r.round_us);
    w.key("cases").value(r.cases).key("stream_cases").value(r.stream_cases);
    w.key("corpus_entries").value(r.corpus_entries);
    w.key("minimize_steps").value(r.minimize_steps);
    w.key("novel").value(r.novel).key("duplicate").value(r.duplicate);
    w.key("state_bytes").value(r.state_bytes);
    w.end_object();
  }
  w.end_array();
}

std::size_t report_cases(const hdiff::campaign::CampaignReport& report) {
  std::size_t n = 0;
  for (const auto& rr : report.rounds) n += rr.cases;
  return n;
}

std::size_t report_quarantined(const hdiff::campaign::CampaignReport& report) {
  std::size_t n = 0;
  for (const auto& rr : report.rounds) n += rr.quarantined;
  return n;
}

void run_campaign(const Args& args, Result& res) {
  Fleet fleet;
  const CampaignInputs in = campaign_setup(&fleet, res, 3);
  const CampaignSizes sizes = campaign_sizes(args);
  const fs::path work = fs::path(args.out_dir) / "campaign-state";
  fs::remove_all(work);

  const auto config_for = [&](const std::string& dir) {
    hdiff::campaign::CampaignConfig c = campaign_config(in, sizes, dir);
    c.executor.jobs = nproc();
    c.streams = true;
    c.stream_budget_per_round = sizes.stream_budget;
    add_seeded_inputs(c, args.seed);
    return c;
  };

  StateBytes first;
  std::size_t mismatched = 0;
  // One timed CampaignEngine::run from a fresh state dir.
  const auto engine_unit = [&](std::size_t i) {
    const std::string dir = (work / ("engine-" + std::to_string(i))).string();
    hdiff::campaign::CampaignEngine engine(config_for(dir));
    const std::uint64_t t0 = now_us();
    const hdiff::campaign::CampaignReport report = engine.run(fleet);
    const std::uint64_t dt = now_us() - t0;
    res.check(report.error.empty(), "campaign run failed: " + report.error);
    res.work_us.push_back(dt);
    res.unit_us.push_back(dt);
    res.cases += report_cases(report);
    res.quarantined += report_quarantined(report);
    res.findings.insert(report.total_findings);
    StateBytes bytes = state_bytes(dir);
    if (i == 0) {
      first = std::move(bytes);
    } else if (!(bytes == first)) {
      ++mismatched;
    }
    fs::remove_all(dir);
    return dt;
  };

  if (!args.trace) {
    closed_loop(args.seconds, engine_unit);
    res.peak_rss_kb = peak_rss_kb(false);
    // Gate: the hook-driven decomposition (untimed here) reproduces the
    // engine's committed bytes.
    const std::string dir = (work / "hooked").string();
    std::string error;
    const bool ok = run_hooked(config_for(dir), fleet, nullptr, 0, nullptr,
                               nullptr, &error);
    res.check(ok && state_bytes(dir) == first,
              "hook-driven campaign state differs from CampaignEngine::run" +
                  (ok ? std::string() : ": " + error));
  } else {
    // The gate's reference bytes come from one untimed engine run; the loop
    // then alternates an untraced and a traced hook-driven run, which differ
    // only in the sink and the obs hooks.
    engine_unit(0);
    hdiff::obs::Registry registry;
    std::unique_ptr<hdiff::obs::TraceSink> sink;
    std::vector<RoundRecord> records;
    CacheCounts caches;
    JsonWriter pairs;
    pairs.begin_array();
    std::size_t hooked_mismatched = 0;
    const auto hooked_unit = [&](std::size_t i, bool traced,
                                 std::vector<RoundRecord>* recs,
                                 CacheCounts* counts) {
      const std::string dir = (work / ("hooked-" + std::to_string(i))).string();
      hdiff::campaign::CampaignConfig c = config_for(dir);
      if (traced) {
        sink = std::make_unique<hdiff::obs::TraceSink>();
        c.obs.metrics = &registry;
        c.obs.trace = sink.get();
      }
      const std::size_t before = recs->size();
      std::string error;
      const std::uint64_t span_start = traced ? sink->now() : 0;
      const std::uint64_t t0 = now_us();
      const bool ok = run_hooked(c, fleet, traced ? sink.get() : nullptr, i,
                                 recs, counts, &error);
      const std::uint64_t dt = now_us() - t0;
      if (traced) sink->complete("bench:campaign.run", "bench", span_start, dt);
      if (!ok || !(state_bytes(dir) == first)) ++hooked_mismatched;
      fs::remove_all(dir);
      for (std::size_t k = before; k < recs->size(); ++k) {
        res.cases += (*recs)[k].cases;
        res.quarantined += (*recs)[k].quarantined;
      }
      return dt;
    };
    closed_loop(args.seconds, [&](std::size_t i) {
      std::vector<RoundRecord> plain_records;
      CacheCounts plain_caches;
      const std::uint64_t plain =
          hooked_unit(i, false, &plain_records, &plain_caches);
      const std::uint64_t traced = hooked_unit(i, true, &records, &caches);
      pairs.begin_object().key("untraced_us").value(plain);
      pairs.key("traced_us").value(traced).end_object();
    });
    pairs.end_array();
    res.peak_rss_kb = peak_rss_kb(false);
    res.check(hooked_mismatched == 0,
              std::to_string(hooked_mismatched) +
                  " traced hook-driven run(s) differ from CampaignEngine::run");
    JsonWriter& w = res.traced;
    w.key("pairs").raw(pairs.str());
    write_setup_stages(w, in);
    w.key("jobs").value(nproc());
    caches.write(w);
    write_rounds(w, records);
    write_chain_hists(w, registry);
    write_trace(args, *sink, w);
  }
  res.check(mismatched == 0, std::to_string(mismatched) +
                                 " campaign run(s) changed state bytes");
  fs::remove_all(work);
}

// ---- serve: hdiff serve ------------------------------------------------------

struct ServeRound {
  std::size_t round = 0;
  std::uint64_t gap_us = 0;    ///< previous commit (or start) -> first spawn
  std::uint64_t shard_us = 0;  ///< first spawn -> round_commit
  std::uint64_t round_us = 0;  ///< previous commit (or start) -> round_commit
  std::size_t cases = 0;
};

/// Committed-round timings from `<state-dir>/flight.events`.
std::vector<ServeRound> flight_rounds(const std::string& dir) {
  hdiff::serve::FlightRecorder recorder(dir);
  recorder.load();
  std::vector<ServeRound> rounds;
  std::uint64_t origin_ms = 0, first_spawn_ms = 0;
  bool spawned = false;
  for (const auto& ev : recorder.events_since(0)) {
    if (ev.kind == "start") {
      origin_ms = ev.ts_ms;
    } else if (ev.kind == "spawn" && !spawned) {
      first_spawn_ms = ev.ts_ms;
      spawned = true;
    } else if (ev.kind == "round_commit") {
      ServeRound r;
      r.round = ev.round;
      r.round_us = (ev.ts_ms - origin_ms) * 1000;
      if (spawned) {
        r.gap_us = (first_spawn_ms - origin_ms) * 1000;
        r.shard_us = (ev.ts_ms - first_spawn_ms) * 1000;
      }
      const std::size_t at = ev.detail.find("cases=");
      if (at != std::string::npos) {
        r.cases = std::strtoull(ev.detail.c_str() + at + 6, nullptr, 10);
      }
      rounds.push_back(r);
      origin_ms = ev.ts_ms;
      spawned = false;
    }
  }
  return rounds;
}

void run_serve(const Args& args, Result& res) {
  Fleet fleet;
  const CampaignInputs in = campaign_setup(&fleet, res, 3);
  const CampaignSizes sizes = campaign_sizes(args);
  const std::size_t shards = args.tiny ? 2 : nproc();
  const fs::path work = fs::path(args.out_dir) / "serve-state";
  fs::remove_all(work);

  // `hdiff serve --budget B --jobs 1 --shards nproc`: streams off, the
  // CLI-default campaign config, workers rebuilding it from these flags.
  const auto config_for = [&](const std::string& dir) {
    hdiff::serve::ServeConfig sc;
    sc.campaign = campaign_config(in, sizes, dir);
    sc.campaign.executor.jobs = 1;
    sc.shards = shards;
    sc.worker_binary = args.hdiff_bin;
    sc.worker_args = {"--budget", std::to_string(sizes.budget), "--jobs", "1"};
    return sc;
  };

  StateBytes first;
  std::size_t mismatched = 0;
  // One timed Supervisor::run from a fresh state dir; `obs` instruments it.
  const auto serve_unit = [&](std::size_t i, hdiff::obs::Registry* registry,
                              hdiff::obs::TraceSink* sink,
                              hdiff::serve::ServeReport* report_out) {
    const std::string dir = (work / ("serve-" + std::to_string(i))).string();
    hdiff::serve::ServeConfig sc = config_for(dir);
    std::unique_ptr<hdiff::serve::FleetMetrics> merged;
    if (registry) {
      merged = std::make_unique<hdiff::serve::FleetMetrics>(registry);
      sc.obs.metrics = registry;
      sc.campaign.obs.metrics = registry;
      sc.fleet = merged.get();
    }
    if (sink) {
      sink->set_process_name("supervisor");
      sc.obs.trace = sink;
      sc.campaign.obs.trace = sink;
    }
    hdiff::serve::Supervisor supervisor(std::move(sc), fleet);
    const std::uint64_t span_start = sink ? sink->now() : 0;
    const std::uint64_t t0 = now_us();
    const hdiff::serve::ServeReport report = supervisor.run();
    const std::uint64_t dt = now_us() - t0;
    if (sink) sink->complete("bench:serve.run", "bench", span_start, dt);
    res.check(report.error.empty(), "serve run failed: " + report.error);
    res.findings.insert(report.total_findings);
    const std::vector<ServeRound> rounds = flight_rounds(dir);
    std::size_t cases = 0;
    for (const auto& r : rounds) cases += r.cases;
    const auto status = hdiff::campaign::CampaignEngine::status(dir);
    StateBytes bytes = state_bytes(dir);
    if (first.state.empty()) {
      first = std::move(bytes);
    } else if (!(bytes == first)) {
      ++mismatched;
    }
    fs::remove_all(dir);
    if (report_out) *report_out = report;
    return std::make_tuple(dt, rounds, cases, status.retry_depth);
  };
  const auto record_untraced = [&](std::size_t i) {
    const auto unit = serve_unit(i, nullptr, nullptr, nullptr);
    res.work_us.push_back(std::get<0>(unit));
    for (const auto& r : std::get<1>(unit)) res.unit_us.push_back(r.round_us);
    return unit;
  };

  if (!args.trace) {
    closed_loop(args.seconds, [&](std::size_t i) {
      // Without a registry the daemon's per-round quarantine count never
      // leaves it; the retry queue left at exit stands in for it.
      const auto unit = record_untraced(i);
      res.cases += std::get<2>(unit);
      res.quarantined += std::get<3>(unit);
    });
  } else {
    hdiff::obs::Registry registry;
    std::unique_ptr<hdiff::obs::TraceSink> sink;
    JsonWriter pairs, rounds_json;
    pairs.begin_array();
    rounds_json.begin_array();
    std::uint64_t spawns = 0, deaths = 0;
    closed_loop(args.seconds, [&](std::size_t i) {
      const std::uint64_t plain = std::get<0>(record_untraced(2 * i));
      sink = std::make_unique<hdiff::obs::TraceSink>();
      hdiff::serve::ServeReport report;
      const auto [dt, rounds, cases, retry] =
          serve_unit(2 * i + 1, &registry, sink.get(), &report);
      res.cases += cases;
      spawns += report.worker_spawns;
      deaths += report.worker_deaths;
      pairs.begin_object().key("untraced_us").value(plain);
      pairs.key("traced_us").value(dt).end_object();
      for (const auto& r : rounds) {
        rounds_json.begin_object().key("unit").value(i);
        rounds_json.key("round").value(r.round);
        rounds_json.key("gap_us").value(r.gap_us);
        rounds_json.key("shard_us").value(r.shard_us);
        rounds_json.key("round_us").value(r.round_us);
        rounds_json.key("cases").value(r.cases).end_object();
      }
    });
    pairs.end_array();
    rounds_json.end_array();
    // Per-round quarantines of the traced runs, from the merged registry:
    // the count campaign and oneshot report.
    res.quarantined =
        registry.counter("hdiff_campaign_quarantined_total").value();
    JsonWriter& w = res.traced;
    w.key("pairs").raw(pairs.str());
    w.key("serve_rounds").raw(rounds_json.str());
    write_setup_stages(w, in);
    w.key("jobs").value(1);
    w.key("shards").value(shards);
    w.key("worker_spawns").value(spawns);
    w.key("worker_deaths").value(deaths);
    w.key("heartbeats").value(
        registry.counter("hdiff_serve_heartbeats_total").value());
    w.key("memo_hits").value(registry.counter("hdiff_memo_hits_total").value());
    w.key("memo_misses")
        .value(registry.counter("hdiff_memo_misses_total").value());
    w.key("verdict_hits")
        .value(registry.counter("hdiff_verdict_hits_total").value());
    w.key("verdict_misses")
        .value(registry.counter("hdiff_verdict_misses_total").value());
    write_chain_hists(w, registry);
    write_trace(args, *sink, w);
  }
  res.peak_rss_kb = peak_rss_kb(true);
  res.check(mismatched == 0,
            std::to_string(mismatched) + " serve run(s) changed state bytes");

  // Gate: the sharded daemon commits exactly what one process does.
  const std::string dir = (work / "reference").string();
  hdiff::campaign::CampaignConfig reference = campaign_config(in, sizes, dir);
  reference.executor.jobs = nproc();
  hdiff::campaign::CampaignEngine engine(std::move(reference));
  const auto report = engine.run(fleet);
  res.check(report.error.empty() && state_bytes(dir) == first,
            "serve state differs from a single-process CampaignEngine::run");
  fs::remove_all(work);
}

void print_result(const Args& args, const Result& res) {
  JsonWriter w;
  w.begin_object();
  w.key("workload").value(args.workload);
  w.key("seed").value(args.seed);
  w.key("trace").value(args.trace);
  w.key("tiny").value(args.tiny);
  w.key("host").begin_object();
  w.key("nproc").value(nproc());
  w.key("compiler").value(HDIFF_BENCH_COMPILER);
  w.key("optimized").value(kOptimized);
  w.key("sanitized").value(kSanitized);
  w.end_object();
  const auto list = [&](const char* key, const std::vector<std::uint64_t>& v) {
    w.key(key).begin_array();
    for (std::uint64_t x : v) w.value(x);
    w.end_array();
  };
  list("setup_us", res.setup_us);
  list("work_us", res.work_us);
  list("unit_us", res.unit_us);
  w.key("cases").value(res.cases);
  w.key("findings").begin_array();
  for (std::size_t f : res.findings) w.value(f);
  w.end_array();
  w.key("quarantined").value(res.quarantined);
  w.key("checks").value(res.checks);
  w.key("check_failures").begin_array();
  for (const auto& f : res.check_failures) w.value(f);
  w.end_array();
  w.key("peak_rss_kb").value(res.peak_rss_kb);
  if (args.trace) {
    w.key("traced").begin_object();
    if (!res.traced.str().empty()) w.raw(res.traced.str());
    w.end_object();
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload oneshot|campaign|serve "
                 "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] "
                 "[--hdiff PATH] [--tiny]\n");
    return 2;
  }
  if (args.workload == "serve" && args.hdiff_bin.empty()) {
    std::fprintf(stderr, "bench_e2e: serve needs --hdiff PATH\n");
    return 2;
  }
  fs::create_directories(args.out_dir);
  Result res;
  if (args.workload == "oneshot") {
    run_oneshot(args, res);
  } else if (args.workload == "campaign") {
    run_campaign(args, res);
  } else {
    run_serve(args, res);
  }
  print_result(args, res);
  return res.check_failures.empty() ? 0 : 1;
}
