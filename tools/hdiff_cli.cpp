// hdiff — command-line front end to the framework.
//
//   hdiff analyze [rfc7230 ...]        documentation-analyzer summary
//   hdiff srs [rfc7230 ...]            list extracted specification reqs
//   hdiff generate [--out FILE]        generate the test corpus (JSON)
//   hdiff run [--corpus FILE] [--json FILE] [--jobs N] [--no-memo]
//             [--retries N] [--case-deadline-ms N]
//             [--trace-out FILE] [--metrics-out FILE]
//                                      full differential run; optionally
//                                      replay a saved corpus / export JSON;
//                                      --jobs shards the chain stage over N
//                                      workers (default: all cores, 1 =
//                                      serial), --no-memo disables the
//                                      observation/verdict caches,
//                                      --retries/--case-deadline-ms set the
//                                      fault-degradation policy,
//                                      --trace-out writes a Chrome
//                                      trace-event JSON timeline and
//                                      --metrics-out a Prometheus text file
//   hdiff stats [--jobs N]             run the pipeline with metrics enabled
//                                      and print the stage timings and the
//                                      full metrics snapshot
//   hdiff lint [docs...] [--all-corpus] [--jobs N] [--json FILE]
//              [--no-default-waivers]  static spec-lint: grammar analysis
//                                      (left recursion, ambiguity, dead
//                                      branches), SR rule-base consistency,
//                                      and mutation-operator coverage; exit
//                                      0 clean, 3 warnings, 4 errors
//   hdiff campaign run|resume|status|minimize --state-dir DIR
//                  [--rounds N] [--budget N] [--jobs N] [--json FILE]
//                  [--mini] [--no-minimize]
//                                      persistent differential-fuzzing
//                                      campaign (src/campaign): round 0
//                                      executes the one-shot corpus, later
//                                      rounds fire scheduler-allocated
//                                      mutants, novel divergence signatures
//                                      become deduplicated findings, and
//                                      every round ends in a crash-safe
//                                      checkpoint under --state-dir
//   hdiff serve --state-dir DIR        supervised campaign daemon: rounds
//                  [--shards N] [--port P] [...]
//                  [--metrics-out FILE] [--trace-out FILE]
//                                      sharded over worker OS processes
//                                      (heartbeat liveness, crash restart,
//                                      shard quarantine, durable shard-result
//                                      merge) with an HTTP control plane
//                                      (/healthz /readyz /status /metrics
//                                      /events, POST /campaigns/:id/stop) and
//                                      graceful SIGTERM/SIGINT drain to exit
//                                      0; worker metrics/trace snapshots ride
//                                      the shard results and merge into one
//                                      fleet exposition / stitched trace
//   hdiff tail --port P                live dashboard: poll a daemon's
//                  [--interval-ms N] [--once]
//                                      /status and /events and render round
//                                      progress, worker health, and
//                                      lifecycle events
//   hdiff audit FRONT BACK             audit one proxy/origin combination
//   hdiff parse IMPL                   parse one raw request from stdin
//                                      under IMPL's model and show HMetrics
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <type_traits>

#include "analysis/lint.h"
#include "campaign/engine.h"
#include "campaign/store.h"
#include "core/export.h"
#include "core/hmetrics.h"
#include "corpus/registry.h"
#include "core/hdiff.h"
#include "core/probes.h"
#include "core/record.h"
#include "impls/products.h"
#include "obs/obs.h"
#include "report/table.h"
#include "serve/control.h"
#include "serve/supervisor.h"
#include "serve/worker.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: hdiff <command> [args]\n"
      "  analyze [docs...]            analyzer summary (default: core six)\n"
      "  srs [docs...]                list extracted SRs\n"
      "  generate [--out FILE]        write the generated corpus as JSON\n"
      "  run [--corpus FILE] [--json FILE] [--jobs N] [--no-memo]\n"
      "      [--retries N] [--case-deadline-ms N]\n"
      "      [--trace-out FILE] [--metrics-out FILE]\n"
      "                               full differential run (N workers;\n"
      "                               default all cores, 1 = serial);\n"
      "                               --trace-out writes a Chrome trace-event\n"
      "                               timeline, --metrics-out a Prometheus\n"
      "                               text snapshot\n"
      "  stats [--jobs N]             run with metrics enabled and print the\n"
      "                               stage timings and metrics snapshot\n"
      "  lint [docs...] [--all-corpus] [--jobs N] [--json FILE]\n"
      "       [--no-default-waivers]  static spec-lint over the extracted\n"
      "                               grammar, the SR rule base, and the\n"
      "                               mutation operators; exit 0 = clean,\n"
      "                               3 = unwaived warnings, 4 = errors\n"
      "  campaign run|resume|status|minimize --state-dir DIR\n"
      "           [--rounds N] [--budget N] [--jobs N] [--json FILE]\n"
      "           [--mini] [--no-minimize] [--no-coverage] [--streams]\n"
      "                               persistent fuzzing campaign with\n"
      "                               divergence-feedback + grammar-coverage\n"
      "                               scheduling (--no-coverage disables the\n"
      "                               static coverage map), finding dedup,\n"
      "                               delta-debug minimized corpus growth\n"
      "                               and checkpoint/resume; --streams adds\n"
      "                               connection-level request-stream fuzzing\n"
      "                               (splice/reorder/duplicate/drop arms)\n"
      "  serve --state-dir DIR [--rounds N] [--budget N] [--jobs N]\n"
      "        [--shards N] [--port P] [--port-file FILE] [--mini]\n"
      "        [--no-minimize] [--no-coverage] [--streams]\n"
      "        [--heartbeat-ms N] [--quarantine-after K]\n"
      "        [--in-process] [--metrics-out FILE] [--trace-out FILE]\n"
      "                               supervised campaign daemon: sharded\n"
      "                               worker processes, crash restart with\n"
      "                               backoff, shard quarantine, HTTP control\n"
      "                               plane (/healthz /readyz /status\n"
      "                               /metrics /events,\n"
      "                               POST /campaigns/:id/stop), graceful\n"
      "                               SIGTERM/SIGINT drain; --metrics-out\n"
      "                               dumps the merged fleet exposition and\n"
      "                               --trace-out the stitched supervisor +\n"
      "                               worker Chrome trace on exit\n"
      "  tail --port P [--interval-ms N] [--once]\n"
      "                               live dashboard over a running daemon:\n"
      "                               poll /status + /events and render round\n"
      "                               progress, per-worker health, novelty\n"
      "                               rates, and new lifecycle events\n"
      "  audit FRONT BACK             audit one proxy/origin pair\n"
      "  parse IMPL                   parse stdin as IMPL (server model)\n");
  return 2;
}

std::vector<std::string_view> doc_args(int argc, char** argv, int from) {
  std::vector<std::string_view> docs;
  for (int i = from; i < argc; ++i) docs.emplace_back(argv[i]);
  return docs;
}

/// Store `value`, the argument of the numeric flag `flag`, in `*out`: a
/// plain decimal (core::parse_dec: no sign, no leading zero, nothing after
/// the digits) within [lo, hi].  Anything else is a usage error: it names
/// the flag on stderr and exits 2.  Called only while parsing arguments,
/// before any thread or child process exists.
template <typename T>
void numeric_flag(const char* flag, const char* value,
                  std::type_identity_t<T> lo, std::type_identity_t<T> hi,
                  T* out) {
  T v{};
  if (!hdiff::core::parse_dec(std::string_view(value), &v) || v < lo ||
      v > hi) {
    std::fprintf(stderr, "%s wants an integer in [%s, %s], got %s\n", flag,
                 std::to_string(lo).c_str(), std::to_string(hi).c_str(),
                 value);
    std::exit(2);
  }
  *out = v;
}

// Upper bounds shared by the flags that set the same knob in several
// commands (workers, rounds, per-round budget, shard processes).
constexpr std::size_t kMaxJobs = 1024;
constexpr std::size_t kMaxRounds = 1000000000;
constexpr std::size_t kMaxBudget = 1000000;
constexpr std::size_t kMaxShards = 256;
constexpr int kMaxRetries = 10000;
constexpr int kMaxMillis = 86400000;  // one day
constexpr int kMaxHeartbeatMs = 60000;

bool write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(out);
}

int cmd_analyze(int argc, char** argv) {
  hdiff::core::DocumentationAnalyzer analyzer;
  auto docs = doc_args(argc, argv, 2);
  auto result = analyzer.analyze(
      docs.empty() ? hdiff::corpus::http_core_documents() : docs);
  hdiff::report::Table t({"metric", "value"});
  t.add_row({"corpus words", std::to_string(result.total_words)});
  t.add_row({"valid sentences", std::to_string(result.total_sentences)});
  t.add_row({"specification requirements", std::to_string(result.srs.size())});
  t.add_row({"converted SR instances",
             std::to_string(result.converted_sr_count)});
  t.add_row({"ABNF rules (adapted)", std::to_string(result.grammar.size())});
  t.add_row({"ABNF candidates parsed",
             std::to_string(result.abnf_stats.parsed_rules)});
  t.add_row({"prose rules resolved",
             std::to_string(result.adapt_report.resolved_prose.size())});
  t.add_row({"unresolved references",
             std::to_string(result.adapt_report.unresolved.size())});
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_srs(int argc, char** argv) {
  hdiff::core::DocumentationAnalyzer analyzer;
  auto docs = doc_args(argc, argv, 2);
  auto result = analyzer.analyze(
      docs.empty() ? hdiff::corpus::http_core_documents() : docs);
  for (const auto& sr : result.srs) {
    std::printf("%s  [%.2f %s]  %s\n", sr.id.c_str(), sr.sentiment,
                std::string(to_string(sr.polarity)).c_str(),
                sr.sentence.c_str());
    for (const auto& conv : sr.conversions) {
      std::printf("    -> %s\n", conv.hypothesis.to_string().c_str());
    }
  }
  std::printf("%zu SRs, %zu conversions\n", result.srs.size(),
              result.converted_sr_count);
  return 0;
}

int cmd_generate(int argc, char** argv) {
  std::string out_path;
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }
  hdiff::core::DocumentationAnalyzer analyzer;
  auto analysis = analyzer.analyze(hdiff::corpus::http_core_documents());
  hdiff::core::SrTranslator translator(analysis.grammar);
  auto cases = translator.translate_all(analysis.srs);
  hdiff::core::AbnfTestGen abnf_gen(analysis.grammar);
  auto abnf_cases = abnf_gen.generate();
  auto probes = hdiff::core::verification_probes();
  cases.insert(cases.end(), std::make_move_iterator(abnf_cases.begin()),
               std::make_move_iterator(abnf_cases.end()));
  cases.insert(cases.end(), std::make_move_iterator(probes.begin()),
               std::make_move_iterator(probes.end()));
  std::string json = hdiff::core::export_test_cases_json(cases);
  if (out_path.empty()) {
    std::printf("%s\n", json.c_str());
  } else if (!write_file(out_path, json)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  } else {
    std::printf("wrote %zu test cases to %s\n", cases.size(),
                out_path.c_str());
  }
  return 0;
}

/// Entry points of the generator: every default generation target plus the
/// whole-message rule.  Rules outside these cones are reported as GL007.
std::vector<std::string> lint_roots() {
  std::vector<std::string> roots{"http-message"};
  for (const auto& target : hdiff::core::default_abnf_targets()) {
    roots.push_back(target.rule);
  }
  return roots;
}

hdiff::analysis::LintResult lint_grammar_and_rules(
    const hdiff::abnf::Grammar& grammar, std::size_t jobs,
    bool use_default_waivers, hdiff::obs::Observability ob = {}) {
  hdiff::analysis::LintOptions options;
  options.jobs = jobs;
  options.grammar.roots = lint_roots();
  options.use_default_corpus_waivers = use_default_waivers;
  options.obs = ob;
  return hdiff::analysis::run_lint(grammar, hdiff::core::make_builtin_rules(),
                                   options);
}

int cmd_run(int argc, char** argv) {
  std::string corpus_path, json_path, trace_path, metrics_path;
  hdiff::core::ExecutorConfig exec_config;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-memo") == 0) exec_config.memoize = false;
    if (i + 1 >= argc) continue;
    if (std::strcmp(argv[i], "--corpus") == 0) corpus_path = argv[i + 1];
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
    if (std::strcmp(argv[i], "--trace-out") == 0) trace_path = argv[i + 1];
    if (std::strcmp(argv[i], "--metrics-out") == 0) metrics_path = argv[i + 1];
    if (std::strcmp(argv[i], "--jobs") == 0) {
      numeric_flag("--jobs", argv[i + 1], 1, kMaxJobs, &exec_config.jobs);
    }
    if (std::strcmp(argv[i], "--retries") == 0) {
      numeric_flag("--retries", argv[i + 1], 1, kMaxRetries,
                   &exec_config.retry.attempts);
    }
    if (std::strcmp(argv[i], "--case-deadline-ms") == 0) {
      numeric_flag("--case-deadline-ms", argv[i + 1], 0, kMaxMillis,
                   &exec_config.retry.case_deadline_ms);
    }
  }

  // Observability is opt-in per flag: --trace-out enables the span
  // timeline, --metrics-out the metrics registry.  Both stay null (near
  // zero overhead, byte-identical findings) when the flags are absent.
  hdiff::obs::Registry registry;
  hdiff::obs::TraceSink sink;
  hdiff::obs::Observability ob;
  if (!metrics_path.empty()) ob.metrics = &registry;
  if (!trace_path.empty()) ob.trace = &sink;

  hdiff::core::PipelineResult result;
  if (!corpus_path.empty()) {
    // Replay a saved corpus instead of regenerating (§V: "we can reuse the
    // test cases for discovering vulnerabilities in more implementations").
    std::string text;
    std::vector<hdiff::core::TestCase> cases;
    if (!hdiff::core::read_file(corpus_path, &text) ||
        !hdiff::core::import_test_cases_json(text, &cases)) {
      std::fprintf(stderr, "cannot read corpus %s\n", corpus_path.c_str());
      return 1;
    }
    auto fleet = hdiff::impls::make_all_implementations();
    auto chain = hdiff::net::Chain::from_fleet(fleet);
    exec_config.obs = ob;
    hdiff::core::ParallelExecutor executor(exec_config);
    result.findings = executor.run(chain, cases, &result.exec_stats);
    result.executed_cases = std::move(cases);
    result.matrix =
        hdiff::core::build_matrix(result.findings, result.executed_cases);
  } else {
    hdiff::core::PipelineConfig config;
    config.executor = exec_config;
    config.obs = ob;  // the pipeline propagates this to the executor
    hdiff::core::Pipeline pipeline(config);
    result = pipeline.run();
  }

  hdiff::report::Table t({"product", "HRS", "HoT", "CPDoS"});
  for (const auto& [name, row] : result.matrix.by_impl) {
    t.add_row({name, row.hrs ? "x" : ".", row.hot ? "x" : ".",
               row.cpdos ? "x" : "."});
  }
  std::printf("%s", t.render().c_str());
  std::printf("%zu violations, %zu pairs (HoT %zu), %zu executed cases\n",
              result.findings.violations.size(), result.findings.pairs.size(),
              result.matrix.hot_pairs.size(), result.executed_cases.size());
  std::printf(
      "%zu worker(s); observation memo %.1f%% hits, verdict cache %.1f%% "
      "hits; echo kept %zu / dropped %zu forwards\n",
      result.exec_stats.jobs, 100.0 * result.exec_stats.memo_hit_rate(),
      100.0 * result.exec_stats.verdict_hit_rate(),
      result.exec_stats.echo_records, result.exec_stats.echo_dropped);
  if (result.exec_stats.faulted_attempts > 0 ||
      result.exec_stats.quarantined_cases > 0) {
    std::printf(
        "harness faults: %zu faulted attempt(s), %zu retried, %zu case(s) "
        "recovered, %zu quarantined\n",
        result.exec_stats.faulted_attempts, result.exec_stats.retry_attempts,
        result.exec_stats.recovered_cases,
        result.exec_stats.quarantined_cases);
    for (const auto& q : result.exec_stats.quarantined) {
      std::printf("  quarantined %s after %zu attempt(s): %s (%s)\n",
                  q.uuid.c_str(), q.attempts,
                  std::string(to_string(q.error)).c_str(), q.detail.c_str());
    }
  }

  if (!json_path.empty()) {
    hdiff::core::ExportOptions export_options;
    // Replay runs carry no analyzer grammar; the lint block is only
    // meaningful (and only emitted) for full pipeline runs.
    if (result.analysis.grammar.size() > 0) {
      export_options.lint_json = hdiff::analysis::lint_json(
          lint_grammar_and_rules(result.analysis.grammar, exec_config.jobs,
                                 /*use_default_waivers=*/true, ob));
    }
    if (!write_file(json_path,
                    hdiff::core::export_json(result, export_options))) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("findings exported to %s\n", json_path.c_str());
  }
  // Safe to render here: the executor joined its workers before returning.
  if (!trace_path.empty()) {
    if (!write_file(trace_path, sink.render_chrome_json())) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu events)\n", trace_path.c_str(),
                sink.event_count());
  }
  if (!metrics_path.empty()) {
    if (!write_file(metrics_path, hdiff::obs::render_prometheus(registry))) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}

// ---- stats: pipeline run with the metrics layer on, snapshot printed ------

int cmd_stats(int argc, char** argv) {
  hdiff::core::PipelineConfig config;
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      numeric_flag("--jobs", argv[i + 1], 1, kMaxJobs, &config.executor.jobs);
    }
  }
  hdiff::obs::Registry registry;
  config.obs.metrics = &registry;
  hdiff::core::Pipeline pipeline(config);
  hdiff::core::PipelineResult result = pipeline.run();

  hdiff::report::Table stages({"stage", "ms"});
  for (const auto& st : result.stage_timings) {
    char ms[32];
    std::snprintf(ms, sizeof ms, "%.2f",
                  static_cast<double>(st.micros) / 1000.0);
    stages.add_row({st.stage, ms});
  }
  std::printf("%s", stages.render().c_str());

  const hdiff::obs::Registry::Snapshot snap = registry.snapshot();
  hdiff::report::Table scalars({"metric", "value"});
  for (const auto& [name, v] : snap.counters) {
    scalars.add_row({name, std::to_string(v)});
  }
  for (const auto& [name, v] : snap.gauges) {
    scalars.add_row({name, std::to_string(v)});
  }
  std::printf("%s", scalars.render().c_str());

  hdiff::report::Table hists({"histogram", "count", "p50us", "p90us", "p99us"});
  for (const auto& h : snap.histograms) {
    char p50[32], p90[32], p99[32];
    std::snprintf(p50, sizeof p50, "%.0f", h.p50);
    std::snprintf(p90, sizeof p90, "%.0f", h.p90);
    std::snprintf(p99, sizeof p99, "%.0f", h.p99);
    hists.add_row({h.name, std::to_string(h.count), p50, p90, p99});
  }
  std::printf("%s", hists.render().c_str());
  std::printf("%zu violations, %zu pairs, %zu executed cases\n",
              result.findings.violations.size(), result.findings.pairs.size(),
              result.executed_cases.size());
  return 0;
}

// ---- lint: static spec-lint over grammar, rule base, mutation set --------

int cmd_lint(int argc, char** argv) {
  std::vector<std::string_view> docs;
  std::string json_path;
  bool all_corpus = false;
  bool use_default_waivers = true;
  std::size_t jobs = 1;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--all-corpus") == 0) {
      all_corpus = true;
    } else if (std::strcmp(argv[i], "--no-default-waivers") == 0) {
      use_default_waivers = false;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      numeric_flag("--jobs", argv[++i], 1, kMaxJobs, &jobs);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown lint option %s\n", argv[i]);
      return 2;
    } else {
      docs.emplace_back(argv[i]);
    }
  }
  if (all_corpus) {
    docs.clear();
    for (const auto& doc : hdiff::corpus::all_documents()) {
      docs.push_back(doc.name);
    }
  } else if (docs.empty()) {
    docs = hdiff::corpus::http_core_documents();
  }
  for (const auto& doc : docs) {
    if (hdiff::corpus::find_document(doc) == nullptr) {
      std::fprintf(stderr, "unknown document %s\n",
                   std::string(doc).c_str());
      return 2;
    }
  }

  hdiff::core::DocumentationAnalyzer analyzer;
  auto analysis = analyzer.analyze(docs);
  auto result =
      lint_grammar_and_rules(analysis.grammar, jobs, use_default_waivers);
  std::printf("%s", hdiff::analysis::lint_text(result).c_str());
  if (!json_path.empty()) {
    if (!write_file(json_path, hdiff::analysis::lint_json(result))) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return hdiff::analysis::lint_exit_code(result);
}

// ---- campaign: persistent differential-fuzzing engine (src/campaign) -----

/// The exact case list a one-shot `hdiff run` executes (probes + SR cases +
/// budget-capped ABNF cases).  Running the pipeline against an empty fleet
/// performs only the generation stages — the differential stage iterates
/// zero models — so this stays bit-for-bit what `Pipeline::run` assembles.
std::vector<hdiff::core::TestCase> one_shot_corpus() {
  hdiff::core::Pipeline pipeline;
  std::vector<std::unique_ptr<hdiff::impls::HttpImplementation>> empty;
  return std::move(pipeline.run(empty).executed_cases);
}

/// The campaign's static coverage plan (DESIGN.md §14): the lint's grammar +
/// roots, so production/site ids match `hdiff lint --json` exactly.  With
/// `with_bootstrap_cone`, a tapped generator dry-runs the default ABNF
/// targets (the rules round 0's generated corpus derives from) and the
/// rules it expands seed the covered set — mini/probe bootstraps exercise
/// no grammar rules and get an empty cone.  Cached: the plan is a pure
/// function of the built-in corpus.
const hdiff::analysis::CoveragePlan& campaign_coverage_plan(
    bool with_bootstrap_cone) {
  static const auto build = [](bool cone) {
    hdiff::core::DocumentationAnalyzer analyzer;
    auto analysis = analyzer.analyze(hdiff::corpus::http_core_documents());
    auto plan =
        hdiff::analysis::build_coverage_plan(analysis.grammar, lint_roots());
    if (cone) {
      hdiff::abnf::Generator gen(analysis.grammar);
      hdiff::abnf::load_default_http_predefined(gen);
      std::set<std::string> tapped;
      gen.set_coverage_tap(&tapped);
      for (const auto& target : hdiff::core::default_abnf_targets()) {
        gen.enumerate(target.rule, 64);
      }
      gen.set_coverage_tap(nullptr);
      for (const auto& name : tapped) {
        const std::size_t id = plan.id_of(name);
        if (id != hdiff::analysis::CoveragePlan::npos) {
          plan.bootstrap_covered.insert(id);
        }
      }
    }
    return plan;
  };
  static const hdiff::analysis::CoveragePlan with_cone = build(true);
  static const hdiff::analysis::CoveragePlan without_cone = build(false);
  return with_bootstrap_cone ? with_cone : without_cone;
}

void print_campaign_report(const hdiff::campaign::CampaignReport& report) {
  if (!report.rounds.empty()) {
    hdiff::report::Table t({"round", "cases", "replayed", "novel", "dup",
                            "quarantined", "new-entries", "min-steps"});
    for (const auto& rr : report.rounds) {
      t.add_row({std::to_string(rr.round), std::to_string(rr.cases),
                 std::to_string(rr.replayed), std::to_string(rr.novel),
                 std::to_string(rr.duplicate), std::to_string(rr.quarantined),
                 std::to_string(rr.new_entries),
                 std::to_string(rr.minimize_steps)});
    }
    std::printf("%s", t.render().c_str());
  }
  std::printf(
      "campaign: %zu round(s) committed, %zu finding(s), %zu corpus "
      "entr%s, retry queue %zu%s%s\n",
      report.rounds_completed, report.total_findings, report.corpus_entries,
      report.corpus_entries == 1 ? "y" : "ies", report.retry_depth,
      report.resumed ? " (resumed)" : "",
      report.interrupted ? " (interrupted)" : "");
  if (report.coverage_enabled) {
    const double pct =
        report.coverage_total == 0
            ? 0.0
            : 100.0 * static_cast<double>(report.coverage_covered) /
                  static_cast<double>(report.coverage_total);
    std::printf(
        "coverage: %zu/%zu production(s) (%.1f%%), %zu/%zu gap site(s) "
        "hit%s\n",
        report.coverage_covered, report.coverage_total, pct,
        report.gap_sites_hit, report.gap_sites_total,
        report.coverage_weighting ? "" : " (tracking only)");
    for (const auto& site : report.top_unhit) {
      std::printf("  unhit gap site #%zu: %s alts %zu/%zu (%s, rank %zu) "
                  "overlap %s\n",
                  site.id, site.rule.c_str(), site.alt_a, site.alt_b,
                  site.kind == 'b' ? "byte-overlap" : "first-overlap",
                  site.rank,
                  hdiff::analysis::format_byte_class(site.overlap).c_str());
    }
  }
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string_view sub = argv[2];
  std::string state_dir, json_path;
  hdiff::campaign::CampaignConfig config;
  bool mini = false;
  bool no_coverage = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mini") == 0) {
      mini = true;
    } else if (std::strcmp(argv[i], "--no-minimize") == 0) {
      config.minimize_new = false;
    } else if (std::strcmp(argv[i], "--no-coverage") == 0) {
      no_coverage = true;
    } else if (std::strcmp(argv[i], "--streams") == 0) {
      config.streams = true;
    } else if (std::strcmp(argv[i], "--state-dir") == 0 && i + 1 < argc) {
      state_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      numeric_flag("--rounds", argv[++i], 1, kMaxRounds, &config.rounds);
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      numeric_flag("--budget", argv[++i], 1, kMaxBudget,
                   &config.budget_per_round);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      numeric_flag("--jobs", argv[++i], 1, kMaxJobs, &config.executor.jobs);
    } else {
      std::fprintf(stderr, "unknown campaign option %s\n", argv[i]);
      return 2;
    }
  }
  if (state_dir.empty()) {
    std::fprintf(stderr, "campaign %s requires --state-dir DIR\n",
                 std::string(sub).c_str());
    return 2;
  }

  if (sub == "status") {
    auto report = hdiff::campaign::CampaignEngine::status(state_dir);
    if (!report.error.empty()) {
      std::fprintf(stderr, "%s\n", report.error.c_str());
      return 1;
    }
    print_campaign_report(report);
    if (!json_path.empty() &&
        !write_file(json_path, hdiff::campaign::campaign_report_json(report))) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    return 0;
  }

  auto fleet = hdiff::impls::make_all_implementations();
  if (sub == "minimize") {
    auto report =
        hdiff::campaign::CampaignEngine::minimize_corpus(state_dir, fleet);
    if (!report.error.empty()) {
      std::fprintf(stderr, "%s\n", report.error.c_str());
      return 1;
    }
    std::printf(
        "minimize: %zu mutant entr%s checked in %zu oracle step(s), %zu "
        "shrinkable (0 = corpus is at its fixed point)\n",
        report.entries, report.entries == 1 ? "y" : "ies", report.steps,
        report.shrunk);
    return report.shrunk == 0 ? 0 : 3;
  }
  if (sub != "run" && sub != "resume") return usage();
  if (sub == "resume" &&
      !hdiff::campaign::StateStore(state_dir).exists()) {
    std::fprintf(stderr, "campaign resume: no state at %s\n",
                 state_dir.c_str());
    return 1;
  }

  config.state_dir = state_dir;
  config.bootstrap =
      mini ? hdiff::core::verification_probes() : one_shot_corpus();
  // Coverage plan excluded from the config signature: a pre-coverage state
  // dir resumes cleanly (its checkpoint simply has no plan to honor).
  if (!no_coverage) config.coverage = campaign_coverage_plan(!mini);
  hdiff::campaign::CampaignEngine engine(std::move(config));
  auto report = engine.run(fleet);
  if (!report.error.empty()) {
    std::fprintf(stderr, "%s\n", report.error.c_str());
    return 1;
  }
  print_campaign_report(report);
  if (!json_path.empty() &&
      !write_file(json_path, hdiff::campaign::campaign_report_json(report))) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}

// ---- hdiff serve: supervised, crash-tolerant campaign daemon --------------

/// SIGTERM/SIGINT set this; the supervisor polls it and drains gracefully
/// (finish the round, commit, exit 0).
volatile std::sig_atomic_t g_serve_drain = 0;

void serve_drain_handler(int) { g_serve_drain = 1; }

bool parse_round_shard(std::string_view spec, std::size_t* round,
                       std::size_t* shard) {
  const std::size_t colon = spec.find(':');
  return colon != std::string_view::npos &&
         hdiff::core::parse_dec(spec.substr(0, colon), round) &&
         *round <= kMaxRounds &&
         hdiff::core::parse_dec(spec.substr(colon + 1), shard) &&
         *shard < kMaxShards;
}

int cmd_serve(int argc, char** argv) {
  // Drain handler first: building the bootstrap corpus and the coverage
  // plan below takes a while on slow (sanitized) builds, and a SIGTERM in
  // that window must still drain — Runner::run creates the checkpoint
  // before it checks the flag, so an early signal exits 0 with a loadable
  // state dir.
  g_serve_drain = 0;
  std::signal(SIGTERM, serve_drain_handler);
  std::signal(SIGINT, serve_drain_handler);
  hdiff::serve::ServeConfig config;
  bool mini = false;
  bool in_process = false;
  bool no_coverage = false;
  std::string port_file;
  std::string metrics_out, trace_out;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mini") == 0) {
      mini = true;
    } else if (std::strcmp(argv[i], "--no-minimize") == 0) {
      config.campaign.minimize_new = false;
    } else if (std::strcmp(argv[i], "--no-coverage") == 0) {
      no_coverage = true;
    } else if (std::strcmp(argv[i], "--streams") == 0) {
      config.campaign.streams = true;
    } else if (std::strcmp(argv[i], "--in-process") == 0) {
      in_process = true;  // inline execution, no child processes
    } else if (std::strcmp(argv[i], "--state-dir") == 0 && i + 1 < argc) {
      config.campaign.state_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      numeric_flag("--rounds", argv[++i], 1, kMaxRounds,
                   &config.campaign.rounds);
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      numeric_flag("--budget", argv[++i], 1, kMaxBudget,
                   &config.campaign.budget_per_round);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      numeric_flag("--jobs", argv[++i], 1, kMaxJobs,
                   &config.campaign.executor.jobs);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      numeric_flag("--shards", argv[++i], 1, kMaxShards, &config.shards);
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      numeric_flag("--port", argv[++i], 0, 65535, &config.port);
    } else if (std::strcmp(argv[i], "--port-file") == 0 && i + 1 < argc) {
      port_file = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--heartbeat-ms") == 0 && i + 1 < argc) {
      numeric_flag("--heartbeat-ms", argv[++i], 1, kMaxHeartbeatMs,
                   &config.heartbeat_interval_ms);
    } else if (std::strcmp(argv[i], "--quarantine-after") == 0 &&
               i + 1 < argc) {
      numeric_flag("--quarantine-after", argv[++i], 1, 1000000,
                   &config.quarantine_after);
    } else if (std::strcmp(argv[i], "--chaos-kill") == 0 && i + 1 < argc) {
      hdiff::serve::ChaosAction action;  // test hook: R:S = round:shard
      if (!parse_round_shard(argv[++i], &action.round, &action.shard)) {
        std::fprintf(stderr, "--chaos-kill wants ROUND:SHARD, got %s\n",
                     argv[i]);
        return 2;
      }
      config.chaos.push_back(action);
    } else if (std::strcmp(argv[i], "--chaos-stop") == 0 && i + 1 < argc) {
      hdiff::serve::ChaosAction action;
      action.kind = hdiff::serve::ChaosAction::Kind::kStop;
      if (!parse_round_shard(argv[++i], &action.round, &action.shard)) {
        std::fprintf(stderr, "--chaos-stop wants ROUND:SHARD, got %s\n",
                     argv[i]);
        return 2;
      }
      config.chaos.push_back(action);
    } else {
      std::fprintf(stderr, "unknown serve option %s\n", argv[i]);
      return 2;
    }
  }
  if (config.campaign.state_dir.empty()) {
    std::fprintf(stderr, "serve requires --state-dir DIR\n");
    return 2;
  }
  config.campaign.bootstrap =
      mini ? hdiff::core::verification_probes() : one_shot_corpus();
  if (!no_coverage) config.campaign.coverage = campaign_coverage_plan(!mini);
  // Any non-empty name forks the shard workers from this process.
  if (!in_process) config.worker_binary = argv[0];

  hdiff::obs::Registry registry;
  config.obs.metrics = &registry;
  config.campaign.obs.metrics = &registry;
  // Fleet merge target: supervisor-side series land in `registry` (its
  // total), worker snapshots are absorbed with per-origin labels.  Owned
  // here so --metrics-out can render the final merged exposition after the
  // daemon exits.
  hdiff::serve::FleetMetrics fleet_metrics(&registry);
  config.fleet = &fleet_metrics;
  hdiff::obs::TraceSink trace_sink;
  if (!trace_out.empty()) {
    trace_sink.set_process_name("supervisor");
    config.obs.trace = &trace_sink;
    config.campaign.obs.trace = &trace_sink;
  }

  config.drain_flag = &g_serve_drain;

  auto fleet = hdiff::impls::make_all_implementations();
  try {
    hdiff::serve::Supervisor supervisor(std::move(config), fleet);
    std::printf("serve: control plane on 127.0.0.1:%u\n",
                static_cast<unsigned>(supervisor.port()));
    std::fflush(stdout);
    if (!port_file.empty() &&
        !write_file(port_file, std::to_string(supervisor.port()) + "\n")) {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
    hdiff::serve::ServeReport report = supervisor.run();
    if (!report.error.empty()) {
      std::fprintf(stderr, "serve: %s\n", report.error.c_str());
      return 1;
    }
    std::printf(
        "serve: %zu round(s) committed%s%s, %zu finding(s), %zu corpus "
        "entr%s; %zu spawn(s), %zu death(s), %zu hang(s), %zu restart(s), "
        "%zu quarantined shard(s), %zu reused shard result(s)\n",
        report.rounds_run, report.resumed ? " (resumed)" : "",
        report.drained ? " (drained)" : "", report.total_findings,
        report.corpus_entries, report.corpus_entries == 1 ? "y" : "ies",
        report.worker_spawns, report.worker_deaths, report.worker_hangs,
        report.worker_restarts, report.quarantined_shards,
        report.reused_shard_results);
    if (!metrics_out.empty()) {
      if (!write_file(metrics_out, fleet_metrics.render())) {
        std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
        return 1;
      }
      std::printf("serve: merged fleet metrics written to %s\n",
                  metrics_out.c_str());
    }
    if (!trace_out.empty()) {
      if (!write_file(trace_out, trace_sink.render_chrome_json())) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("serve: stitched trace written to %s\n", trace_out.c_str());
    }
    return 0;
  } catch (const hdiff::net::ChainFault& fault) {
    std::fprintf(stderr, "serve: control plane bind failed (%s): %s\n",
                 std::string(to_string(fault.error())).c_str(), fault.what());
    return 1;
  }
}

// ---- hdiff tail: live dashboard over /status + /events --------------------

/// Value of `"key":<number>` scanning from `from`; the control plane emits
/// flat numbers only, so this minimal scan is faithful (no JSON library in
/// tree).  Returns `fallback` when the key is absent.
long json_long(const std::string& body, const std::string& key,
               long fallback = -1, std::size_t from = 0) {
  const std::size_t at = body.find("\"" + key + "\":", from);
  if (at == std::string::npos) return fallback;
  return std::atol(body.c_str() + at + key.size() + 3);
}

/// Value of `"key":"<string>"` scanning from `from` (no unescaping — every
/// string the daemon emits here is escape-free).
std::string json_str(const std::string& body, const std::string& key,
                     std::size_t from = 0) {
  const std::size_t at = body.find("\"" + key + "\":\"", from);
  if (at == std::string::npos) return {};
  const std::size_t open = at + key.size() + 4;
  const std::size_t close = body.find('"', open);
  if (close == std::string::npos) return {};
  return body.substr(open, close - open);
}

/// One rendered /status + /events delta pass.  Returns false on transport
/// failure (daemon gone or not yet up).  `next_seq` carries the /events
/// cursor between polls so only new lifecycle events print.
bool tail_once(std::uint16_t port, std::uint64_t* next_seq) {
  hdiff::net::ControlProbe status =
      hdiff::net::control_get(port, "GET", "/status");
  if (status.status != 200) return false;
  const std::string& b = status.body;

  const long committed = json_long(b, "rounds_completed", 0);
  const long target = json_long(b, "target_rounds", 0);
  const long cases = json_long(b, "cases", 0);
  const long novel = json_long(b, "novel", 0);
  const double novelty_pct =
      cases > 0 ? 100.0 * static_cast<double>(novel) / cases : 0.0;
  std::printf(
      "[%s] %s round %ld: %ld/%ld committed, %ld finding(s), %ld corpus, "
      "novelty %ld/%ld (%.1f%%)\n",
      json_str(b, "campaign").c_str(), json_str(b, "state").c_str(),
      json_long(b, "round", 0), committed, target, json_long(b, "findings", 0),
      json_long(b, "corpus_entries", 0), novel, cases, novelty_pct);

  // Worker slots: each object in the workers array starts at `{"shard":`.
  std::size_t at = b.find("\"workers\":[");
  const std::size_t workers_end =
      at == std::string::npos ? std::string::npos : b.find(']', at);
  while (at != std::string::npos) {
    at = b.find("{\"shard\":", at);
    if (at == std::string::npos || at > workers_end) break;
    const long hb = json_long(b, "last_heartbeat_ms", -1, at);
    std::printf("  shard %ld: %-11s pid=%ld deaths=%ld hb=%s%s\n",
                json_long(b, "shard", 0, at),
                json_str(b, "health", at).c_str(), json_long(b, "pid", -1, at),
                json_long(b, "consecutive_deaths", 0, at),
                hb < 0 ? "-" : (std::to_string(hb) + "ms").c_str(),
                b.compare(b.find("\"done\":", at) + 7, 4, "true") == 0
                    ? " done"
                    : "");
    ++at;
  }

  hdiff::net::ControlProbe events = hdiff::net::control_get(
      port, "GET", "/events?since=" + std::to_string(*next_seq));
  if (events.status == 200) {
    const std::string& e = events.body;
    std::size_t ev = 0;
    while ((ev = e.find("{\"seq\":", ev)) != std::string::npos) {
      // Bound each lookup to this event object — round/shard/detail are
      // omitted when not applicable, and an unbounded scan would bleed
      // into the next event's fields.  No detail string contains '}'.
      const std::size_t end = e.find('}', ev);
      if (end == std::string::npos) break;
      const std::string obj = e.substr(ev, end - ev + 1);
      const long round = json_long(obj, "round", -1);
      const long shard = json_long(obj, "shard", -1);
      std::string where;
      if (round >= 0) where += " round " + std::to_string(round);
      if (shard >= 0) where += " shard " + std::to_string(shard);
      const std::string detail = json_str(obj, "detail");
      std::printf("  event #%ld %s%s%s%s\n", json_long(obj, "seq", 0),
                  json_str(obj, "kind").c_str(), where.c_str(),
                  detail.empty() ? "" : ": ", detail.c_str());
      ev = end + 1;
    }
    const long advanced = json_long(e, "next_seq", -1);
    if (advanced > 0) *next_seq = static_cast<std::uint64_t>(advanced) - 1;
  }
  std::fflush(stdout);
  return true;
}

/// `hdiff tail --port P [--interval-ms N] [--once]`: poll a running serve
/// daemon's /status and /events and render round progress, per-worker
/// health, novelty rates, and new lifecycle events.  Exits 0 when the
/// daemon goes away after having answered at least once.
int cmd_tail(int argc, char** argv) {
  std::uint16_t port = 0;
  int interval_ms = 500;
  bool once = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      numeric_flag("--port", argv[++i], 1, 65535, &port);
    } else if (std::strcmp(argv[i], "--interval-ms") == 0 && i + 1 < argc) {
      numeric_flag("--interval-ms", argv[++i], 10, kMaxMillis, &interval_ms);
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else {
      std::fprintf(stderr, "unknown tail option %s\n", argv[i]);
      return 2;
    }
  }
  if (port == 0) {
    std::fprintf(stderr, "tail requires --port P (see serve --port-file)\n");
    return 2;
  }
  std::uint64_t next_seq = 0;
  bool connected = false;
  bool reported_miss = false;  // say "retrying" once, not every interval
  while (true) {
    const bool ok = tail_once(port, &next_seq);
    if (ok) connected = true;
    if (once) {
      if (!ok) std::fprintf(stderr, "tail: no daemon on port %u\n", port);
      return ok ? 0 : 1;
    }
    if (!ok && connected) {
      std::printf("tail: daemon on port %u went away\n", port);
      return 0;
    }
    if (!ok && !connected && !reported_miss) {
      std::fprintf(stderr, "tail: no daemon on port %u (retrying)\n", port);
      reported_miss = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

int cmd_audit(int argc, char** argv) {
  if (argc < 4) return usage();
  auto front = hdiff::impls::make_implementation(argv[2]);
  auto back = hdiff::impls::make_implementation(argv[3]);
  if (!front || !back || !front->is_proxy() || !back->is_server()) {
    std::fprintf(stderr, "unknown pair %s -> %s\n", argv[2], argv[3]);
    return 1;
  }
  hdiff::net::Chain chain({front.get()}, {back.get()});
  hdiff::core::DetectionEngine engine;
  hdiff::core::DetectionResult total;
  for (const auto& tc : hdiff::core::verification_probes()) {
    hdiff::core::DetectionEngine::accumulate(
        total, engine.evaluate(tc, chain.observe(tc.uuid, tc.raw)));
  }
  bool any = false;
  for (const auto& p : total.pairs) {
    std::printf("[%s] %s->%s: %s\n", std::string(to_string(p.attack)).c_str(),
                p.front.c_str(), p.back.c_str(), p.detail.c_str());
    any = true;
  }
  if (!any) std::printf("no pair-level findings\n");
  return any ? 3 : 0;  // nonzero exit when exposed, for CI gating
}

int cmd_parse(int argc, char** argv) {
  if (argc < 3) return usage();
  auto impl = hdiff::impls::make_implementation(argv[2]);
  if (!impl) {
    std::fprintf(stderr, "unknown implementation %s\n", argv[2]);
    return 1;
  }
  std::stringstream buffer;
  buffer << std::cin.rdbuf();
  std::string raw = buffer.str();
  auto verdict = impl->parse_request(raw);
  auto metrics = hdiff::core::from_verdict("stdin", verdict,
                                           hdiff::core::Stage::kDirect);
  std::printf("%s\n", to_string(metrics).c_str());
  if (!verdict.reason.empty()) {
    std::printf("reason: %s\n", verdict.reason.c_str());
  }
  if (impl->is_proxy()) {
    auto pv = impl->forward_request(raw);
    if (pv.forwarded()) {
      std::printf("-- as proxy, would forward %zu bytes --\n%s\n",
                  pv.forwarded_bytes.size(), pv.forwarded_bytes.c_str());
    } else {
      std::printf("-- as proxy: rejects with %d --\n", pv.status);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string_view cmd = argv[1];
  if (cmd == "analyze") return cmd_analyze(argc, argv);
  if (cmd == "srs") return cmd_srs(argc, argv);
  if (cmd == "generate") return cmd_generate(argc, argv);
  if (cmd == "run") return cmd_run(argc, argv);
  if (cmd == "stats") return cmd_stats(argc, argv);
  if (cmd == "lint") return cmd_lint(argc, argv);
  if (cmd == "campaign") return cmd_campaign(argc, argv);
  if (cmd == "serve") return cmd_serve(argc, argv);
  if (cmd == "tail") return cmd_tail(argc, argv);
  if (cmd == "audit") return cmd_audit(argc, argv);
  if (cmd == "parse") return cmd_parse(argc, argv);
  return usage();
}
