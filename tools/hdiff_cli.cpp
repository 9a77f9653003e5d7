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
//   hdiff selftest [--fault-plan SPEC] run the pipeline against a
//                                      deliberately faulty fleet and assert
//                                      zero fault-induced false differentials
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
//   hdiff selftest --serve             chaos proof: supervisor state and
//                                      findings byte-identical to the
//                                      single-process engine under worker
//                                      SIGKILLs, a hang, and drain + resume
//   hdiff selftest --serve-soak        /healthz never unready > 2 heartbeat
//                  [--seconds N]       intervals under continuous random
//                                      worker SIGKILLs
//   hdiff audit FRONT BACK             audit one proxy/origin combination
//   hdiff parse IMPL                   parse one raw request from stdin
//                                      under IMPL's model and show HMetrics
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <type_traits>

#include <filesystem>
#include <unistd.h>

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
#include "net/fault.h"
#include "net/tcp.h"
#include "obs/obs.h"
#include "report/table.h"
#include "serve/flight.h"
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
      "  selftest [--fault-plan SPEC] [--jobs N] [--retries N]\n"
      "                               fault-plan self-test: run the chain\n"
      "                               against deliberately faulty models and\n"
      "                               assert zero false differentials\n"
      "                               (SPEC: rate=0.3,seed=1,max=1,nth=0,\n"
      "                               delay=1,kinds=reset+truncate+connect)\n"
      "  lint [docs...] [--all-corpus] [--jobs N] [--json FILE]\n"
      "       [--no-default-waivers]  static spec-lint over the extracted\n"
      "                               grammar, the SR rule base, and the\n"
      "                               mutation operators; exit 0 = clean,\n"
      "                               3 = unwaived warnings, 4 = errors\n"
      "  selftest --serve [--jobs N]  daemon self-test: assert the sharded\n"
      "                               supervisor's findings are byte-identical\n"
      "                               to the single-process engine under\n"
      "                               worker SIGKILLs, a hang, and a\n"
      "                               control-plane drain + resume\n"
      "  selftest --serve-soak [--seconds N] [--jobs N]\n"
      "                               soak: random worker SIGKILLs for N s\n"
      "                               (default 60) asserting /healthz never\n"
      "                               stays unready > 2 heartbeat intervals\n"
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

/// The file's bytes, or "" when it cannot be read.
std::string read_bytes(const std::string& path) {
  std::string out;
  if (!hdiff::core::read_file(path, &out)) out.clear();
  return out;
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

// ---- selftest: fault-plan self-test (graceful-degradation proof) ----------

/// Parse "rate=0.3,seed=7,max=1,nth=0,delay=1,kinds=reset+truncate" into a
/// FaultPlanConfig.  Unknown keys and malformed values are rejected.
bool parse_fault_plan(std::string_view spec,
                      hdiff::net::FaultPlanConfig* out) {
  std::stringstream ss{std::string(spec)};
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = item.substr(0, eq);
    const std::string flag = "--fault-plan " + key;
    const char* value = item.c_str() + eq + 1;
    if (key == "rate") {
      char* end = nullptr;
      out->rate = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(out->rate >= 0 && out->rate <= 1))
        return false;
    } else if (key == "seed") {
      numeric_flag(flag.c_str(), value, 0,
                   std::numeric_limits<std::uint64_t>::max(), &out->seed);
    } else if (key == "max") {
      numeric_flag(flag.c_str(), value, 0, 1000000, &out->max_faults_per_site);
    } else if (key == "nth") {
      numeric_flag(flag.c_str(), value, 0, 1000000, &out->every_nth);
    } else if (key == "delay") {
      numeric_flag(flag.c_str(), value, 0, kMaxMillis, &out->delay_ms);
    } else if (key == "kinds") {
      out->kinds.clear();
      std::stringstream ks{std::string(value)};
      std::string kind;
      while (std::getline(ks, kind, '+')) {
        if (kind == "reset") out->kinds.push_back(hdiff::net::FaultKind::kReset);
        else if (kind == "truncate")
          out->kinds.push_back(hdiff::net::FaultKind::kTruncate);
        else if (kind == "connect")
          out->kinds.push_back(hdiff::net::FaultKind::kConnectFail);
        else if (kind == "stall")
          out->kinds.push_back(hdiff::net::FaultKind::kStall);
        else if (kind == "delay")
          out->kinds.push_back(hdiff::net::FaultKind::kDelay);
        else return false;
      }
      if (out->kinds.empty()) return false;
    } else {
      return false;
    }
  }
  return true;
}

std::set<std::string> pair_keys(const hdiff::core::DetectionResult& r) {
  std::set<std::string> keys;
  for (const auto& p : r.pairs) {
    keys.insert(p.front + "|" + p.back + "|" +
                std::string(to_string(p.attack)));
  }
  return keys;
}

std::set<std::string> violation_keys(const hdiff::core::DetectionResult& r) {
  std::set<std::string> keys;
  for (const auto& v : r.violations) keys.insert(v.impl + "|" + v.sr_id);
  return keys;
}

bool findings_identical(const hdiff::core::DetectionResult& a,
                        const hdiff::core::DetectionResult& b) {
  if (a.violations.size() != b.violations.size() ||
      a.pairs.size() != b.pairs.size())
    return false;
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    if (a.violations[i].impl != b.violations[i].impl ||
        a.violations[i].sr_id != b.violations[i].sr_id ||
        a.violations[i].uuid != b.violations[i].uuid ||
        a.violations[i].detail != b.violations[i].detail)
      return false;
  }
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    if (a.pairs[i].front != b.pairs[i].front ||
        a.pairs[i].back != b.pairs[i].back ||
        a.pairs[i].attack != b.pairs[i].attack ||
        a.pairs[i].uuid != b.pairs[i].uuid ||
        a.pairs[i].detail != b.pairs[i].detail)
      return false;
  }
  return a.discrepancies.status_disagreements ==
             b.discrepancies.status_disagreements &&
         a.discrepancies.host_disagreements ==
             b.discrepancies.host_disagreements &&
         a.discrepancies.body_disagreements ==
             b.discrepancies.body_disagreements &&
         a.discrepancies.inputs_with_discrepancy ==
             b.discrepancies.inputs_with_discrepancy &&
         a.vector_hits == b.vector_hits;
}

int selftest_serve(std::size_t jobs);     // defined with the serve CLI
int selftest_serve_soak(int seconds, std::size_t jobs);

int cmd_selftest(int argc, char** argv) {
  hdiff::net::FaultPlanConfig plan_config;
  plan_config.rate = 0.3;
  plan_config.max_faults_per_site = 1;
  bool serve_mode = false;
  bool serve_soak_mode = false;
  int soak_seconds = 60;
  hdiff::core::PipelineConfig config;
  // A case can touch many distinct victim sites (one per model leg), so the
  // default retry budget is generous: with the default one-fault-per-site
  // plan every case converges and findings come out byte-identical.
  config.executor.retry.attempts = 64;
  // Faults are injected in-process; waiting between attempts would only
  // slow the self-test down without exercising anything.
  config.executor.retry.backoff_base_ms = 0;
  config.executor.retry.backoff_max_ms = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0) {
      serve_mode = true;
    } else if (std::strcmp(argv[i], "--serve-soak") == 0) {
      serve_soak_mode = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      numeric_flag("--seconds", argv[++i], 1, 86400, &soak_seconds);
    } else if (std::strcmp(argv[i], "--fault-plan") == 0 && i + 1 < argc) {
      if (!parse_fault_plan(argv[++i], &plan_config)) {
        std::fprintf(stderr, "bad --fault-plan spec %s\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      numeric_flag("--jobs", argv[++i], 1, kMaxJobs, &config.executor.jobs);
    } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      numeric_flag("--retries", argv[++i], 1, kMaxRetries,
                   &config.executor.retry.attempts);
    } else {
      std::fprintf(stderr, "unknown selftest option %s\n", argv[i]);
      return 2;
    }
  }

  if (serve_soak_mode) {
    return selftest_serve_soak(soak_seconds, config.executor.jobs);
  }
  if (serve_mode) return selftest_serve(config.executor.jobs);

  hdiff::core::Pipeline pipeline(config);
  auto fleet = hdiff::impls::make_all_implementations();
  std::printf("fault-free reference run...\n");
  hdiff::core::PipelineResult baseline = pipeline.run(fleet);

  auto plan = std::make_shared<hdiff::net::FaultPlan>(plan_config);
  auto faulty = hdiff::net::wrap_fleet_with_faults(fleet, plan);
  std::printf(
      "degraded run (rate=%.2f seed=%llu max=%zu nth=%zu, %d retries)...\n",
      plan_config.rate,
      static_cast<unsigned long long>(plan_config.seed),
      plan_config.max_faults_per_site, plan_config.every_nth,
      config.executor.retry.attempts);
  hdiff::core::PipelineResult degraded = pipeline.run(faulty);

  const hdiff::net::FaultPlan::Stats fs = plan->stats();
  const hdiff::core::ExecutorStats& es = degraded.exec_stats;
  std::printf(
      "injected %zu fault(s) over %zu model call(s); %zu faulted attempt(s), "
      "%zu retried, %zu recovered, %zu quarantined\n",
      fs.injected, fs.calls, es.faulted_attempts, es.retry_attempts,
      es.recovered_cases, es.quarantined_cases);

  // Core guarantee: no fault-induced false differentials — every finding of
  // the degraded run must exist in the fault-free run.
  const auto base_pairs = pair_keys(baseline.findings);
  const auto base_violations = violation_keys(baseline.findings);
  std::size_t phantom = 0;
  for (const auto& key : pair_keys(degraded.findings)) {
    if (!base_pairs.count(key)) {
      std::printf("FALSE DIFFERENTIAL (pair): %s\n", key.c_str());
      ++phantom;
    }
  }
  for (const auto& key : violation_keys(degraded.findings)) {
    if (!base_violations.count(key)) {
      std::printf("FALSE DIFFERENTIAL (violation): %s\n", key.c_str());
      ++phantom;
    }
  }
  if (phantom > 0) {
    std::printf("selftest FAILED: %zu fault-induced finding(s)\n", phantom);
    return 1;
  }
  // With every case recovered, the findings must be byte-identical.
  if (es.quarantined_cases == 0 &&
      !findings_identical(baseline.findings, degraded.findings)) {
    std::printf(
        "selftest FAILED: zero quarantine but findings differ from the "
        "fault-free run\n");
    return 1;
  }
  if (es.quarantined_cases == 0) {
    std::printf(
        "selftest PASSED: findings byte-identical to the fault-free run\n");
  } else {
    std::printf(
        "selftest PASSED: no false differentials (%zu case(s) quarantined, "
        "coverage reduced)\n",
        es.quarantined_cases);
  }
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

/// A state dir's corpus/ as one comparable string: every file name and
/// its bytes, in name order.
std::string corpus_image(const std::string& state_dir) {
  namespace fs = std::filesystem;
  std::set<std::string> names;
  std::error_code ec;
  for (const auto& f : fs::directory_iterator(state_dir + "/corpus", ec)) {
    names.insert(f.path().filename().string());
  }
  std::string image;
  for (const auto& name : names) {
    image += name + '\0' + read_bytes(state_dir + "/corpus/" + name) + '\0';
  }
  return image;
}

// ---- hdiff serve: supervised, crash-tolerant campaign daemon --------------

/// SIGTERM/SIGINT set this; the supervisor polls it and drains gracefully
/// (finish the round, commit, exit 0).
volatile std::sig_atomic_t g_serve_drain = 0;

void serve_drain_handler(int) { g_serve_drain = 1; }

/// The running hdiff binary, for spawning serve-worker children.  The
/// HDIFF_BIN env var overrides (tests driving a copied/renamed binary).
std::string self_exe_path() {
  if (const char* hint = std::getenv("HDIFF_BIN"); hint && *hint) return hint;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
  return "hdiff";
}

/// A supervisor-passed signature: exactly 16 lowercase hex digits (hex64),
/// else a usage error naming the flag.
void sig_flag(const char* flag, const char* value, std::string* out) {
  const std::string_view v(value);
  if (v.size() != 16 ||
      v.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
    std::fprintf(stderr, "%s wants 16 lowercase hex digits, got %s\n", flag,
                 value);
    std::exit(2);
  }
  *out = v;
}

/// Hidden subcommand: one shard of one round, spawned by the supervisor.
/// Flags reproduce the supervisor's campaign config minus the bootstrap,
/// which only round 0 builds; the worker checks the ask against the
/// signatures the supervisor passes and refuses a stale one.
int cmd_serve_worker(int argc, char** argv) {
  // The supervisor may die while we beat into the inherited pipe; that must
  // not kill the worker mid-shard (the result file is still useful).
  std::signal(SIGPIPE, SIG_IGN);
  hdiff::serve::WorkerOptions options;
  bool mini = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mini") == 0) {
      mini = true;
    } else if (std::strcmp(argv[i], "--no-minimize") == 0) {
      options.config.minimize_new = false;
    } else if (std::strcmp(argv[i], "--streams") == 0) {
      options.config.streams = true;
    } else if (std::strcmp(argv[i], "--state-dir") == 0 && i + 1 < argc) {
      options.config.state_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      numeric_flag("--budget", argv[++i], 1, kMaxBudget,
                   &options.config.budget_per_round);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      numeric_flag("--jobs", argv[++i], 1, kMaxJobs,
                   &options.config.executor.jobs);
    } else if (std::strcmp(argv[i], "--shard") == 0 && i + 1 < argc) {
      numeric_flag("--shard", argv[++i], 0, kMaxShards - 1, &options.shard);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      numeric_flag("--shards", argv[++i], 1, kMaxShards, &options.shards);
    } else if (std::strcmp(argv[i], "--round") == 0 && i + 1 < argc) {
      numeric_flag("--round", argv[++i], 0, kMaxRounds, &options.round);
    } else if (std::strcmp(argv[i], "--heartbeat-ms") == 0 && i + 1 < argc) {
      numeric_flag("--heartbeat-ms", argv[++i], 1, kMaxHeartbeatMs,
                   &options.heartbeat_interval_ms);
    } else if (std::strcmp(argv[i], "--heartbeat-fd") == 0 && i + 1 < argc) {
      numeric_flag("--heartbeat-fd", argv[++i], 0, 1023, &options.heartbeat_fd);
    } else if (std::strcmp(argv[i], "--config-sig") == 0 && i + 1 < argc) {
      sig_flag("--config-sig", argv[++i], &options.config_sig);
    } else if (std::strcmp(argv[i], "--mutation-sig") == 0 && i + 1 < argc) {
      sig_flag("--mutation-sig", argv[++i], &options.mutation_sig);
    } else if (std::strcmp(argv[i], "--export-metrics") == 0) {
      options.export_metrics = true;
    } else if (std::strcmp(argv[i], "--export-trace") == 0) {
      options.export_trace = true;
    } else {
      std::fprintf(stderr, "unknown serve-worker option %s\n", argv[i]);
      return 2;
    }
  }
  if (options.config.state_dir.empty()) {
    std::fprintf(stderr, "serve-worker requires --state-dir DIR\n");
    return 2;
  }
  if (options.round == 0) {
    options.config.bootstrap =
        mini ? hdiff::core::verification_probes() : one_shot_corpus();
  }
  auto fleet = hdiff::impls::make_all_implementations();
  return hdiff::serve::run_worker(options, fleet);
}

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
  // Workers plan from the committed checkpoint, which carries the adopted
  // plan — no worker flag needed (and none exists, by design).
  if (!no_coverage) config.campaign.coverage = campaign_coverage_plan(!mini);
  if (!in_process) config.worker_binary = self_exe_path();
  // Workers rebuild the campaign config from these flags; the config
  // signature check catches any drift.
  if (mini) config.worker_args.push_back("--mini");
  if (!config.campaign.minimize_new) {
    config.worker_args.push_back("--no-minimize");
  }
  if (config.campaign.streams) config.worker_args.push_back("--streams");
  config.worker_args.push_back("--budget");
  config.worker_args.push_back(
      std::to_string(config.campaign.budget_per_round));
  if (config.campaign.executor.jobs != 0) {
    config.worker_args.push_back("--jobs");
    config.worker_args.push_back(
        std::to_string(config.campaign.executor.jobs));
  }

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

// ---- selftest --serve: sharded-daemon acceptance proof --------------------

struct ControlProbe {
  int status = 0;            ///< 0 = transport failure
  std::string body;
};

ControlProbe control_get(std::uint16_t port, const std::string& method,
                         const std::string& target) {
  const std::string request = method + " " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Content-Length: 0\r\n\r\n";
  hdiff::net::TcpResult result = hdiff::net::tcp_roundtrip(port, request);
  ControlProbe probe;
  if (!result.ok() || result.bytes.size() < 12) return probe;
  probe.status = std::atoi(result.bytes.c_str() + 9);
  const std::size_t body = result.bytes.find("\r\n\r\n");
  if (body != std::string::npos) probe.body = result.bytes.substr(body + 4);
  return probe;
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
  ControlProbe status = control_get(port, "GET", "/status");
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

  ControlProbe events = control_get(
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

/// `selftest --serve`: prove the supervised sharded daemon byte-identical
/// to the single-process engine under worker crashes, a hang, and a
/// mid-campaign drain:
///   1. reference: plain CampaignEngine run;
///   2. chaos: 4-shard supervisor with two workers SIGKILLed mid-round and
///      one SIGSTOPped (hang -> heartbeat timeout -> SIGKILL -> respawn);
///      state and findings must match the reference byte for byte;
///   3. drain: stop via POST /campaigns/default/stop mid-campaign, then a
///      second supervisor resumes the same state dir to completion; final
///      bytes must again match an uninterrupted reference.
int selftest_serve(std::size_t jobs) {
  namespace fs = std::filesystem;
  namespace camp = hdiff::campaign;

  const fs::path root = fs::temp_directory_path() /
                        ("hdiff-selftest-serve-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(root, ec);

  auto base_config = [&](const std::string& leaf, std::size_t rounds) {
    camp::CampaignConfig config;
    config.state_dir = (root / leaf).string();
    config.rounds = rounds;
    config.budget_per_round = 24;
    config.executor.jobs = jobs == 0 ? 1 : jobs;
    config.bootstrap = hdiff::core::verification_probes();
    // Coverage on: the byte-identity comparisons below prove the sharded
    // coverage-weighted schedule matches the single-process reference.
    config.coverage = campaign_coverage_plan(false);
    return config;
  };
  auto compare_dirs = [&](const std::string& ref_dir,
                          const std::string& got_dir, const char* what) {
    const camp::StateStore ref(ref_dir), got(got_dir);
    int rc = 0;
    if (read_bytes(ref.state_path()) != read_bytes(got.state_path())) {
      std::printf("selftest FAILED: %s campaign.state differs\n", what);
      rc = 1;
    }
    if (read_bytes(ref.findings_path()) != read_bytes(got.findings_path())) {
      std::printf("selftest FAILED: %s findings.jsonl differs\n", what);
      rc = 1;
    }
    if (corpus_image(ref_dir) != corpus_image(got_dir)) {
      std::printf("selftest FAILED: %s corpus/ differs\n", what);
      rc = 1;
    }
    return rc;
  };

  auto fleet = hdiff::impls::make_all_implementations();
  const std::string self = self_exe_path();

  // -- 1. single-process reference (2 mutation rounds) ----------------------
  std::printf("reference: single-process 2-round campaign...\n");
  camp::CampaignEngine reference(base_config("reference", 2));
  camp::CampaignReport ref_report = reference.run(fleet);
  if (!ref_report.error.empty()) {
    std::printf("selftest FAILED: %s\n", ref_report.error.c_str());
    return 1;
  }

  // -- 2. sharded supervisor under chaos ------------------------------------
  std::printf(
      "chaos: 4-shard supervisor, 2 worker SIGKILLs + 1 SIGSTOP hang...\n");
  hdiff::serve::ServeConfig serve_config;
  serve_config.campaign = base_config("chaos", 2);
  serve_config.shards = 4;
  serve_config.worker_binary = self;
  serve_config.worker_args = {"--mini", "--budget", "24"};
  serve_config.heartbeat_interval_ms = 60;
  serve_config.quarantine_after = 10;  // keep respawning; never quarantine
  // Observability rides along: worker registry snapshots and trace buffers
  // ship inside the durable shard results and merge supervisor-side.  The
  // byte-identity assertion below therefore also proves obs being on does
  // not perturb findings (the reference ran with obs off).
  hdiff::obs::Registry chaos_reg;
  hdiff::serve::FleetMetrics chaos_fleet(&chaos_reg);
  hdiff::obs::TraceSink chaos_sink;
  chaos_sink.set_process_name("supervisor");
  serve_config.obs.metrics = &chaos_reg;
  serve_config.obs.trace = &chaos_sink;
  serve_config.campaign.obs.metrics = &chaos_reg;
  serve_config.fleet = &chaos_fleet;
  using Chaos = hdiff::serve::ChaosAction;
  serve_config.chaos = {
      Chaos{.round = 1, .shard = 0, .kind = Chaos::Kind::kKill, .delay_ms = 0},
      Chaos{.round = 1, .shard = 2, .kind = Chaos::Kind::kKill, .delay_ms = 0},
      Chaos{.round = 2, .shard = 1, .kind = Chaos::Kind::kStop, .delay_ms = 0},
  };
  hdiff::serve::ServeReport chaos_report;
  try {
    hdiff::serve::Supervisor supervisor(serve_config, fleet);
    chaos_report = supervisor.run();
  } catch (const hdiff::net::ChainFault& fault) {
    std::printf("selftest FAILED: %s\n", fault.what());
    return 1;
  }
  if (!chaos_report.error.empty()) {
    std::printf("selftest FAILED: %s\n", chaos_report.error.c_str());
    return 1;
  }
  std::printf(
      "chaos: %zu spawn(s), %zu death(s) (%zu hang), %zu restart(s)\n",
      chaos_report.worker_spawns, chaos_report.worker_deaths,
      chaos_report.worker_hangs, chaos_report.worker_restarts);
  if (chaos_report.worker_deaths < 3 || chaos_report.worker_hangs < 1 ||
      chaos_report.worker_restarts < 3) {
    std::printf(
        "selftest FAILED: chaos did not engage (want >=3 deaths incl. 1 "
        "hang, >=3 restarts)\n");
    return 1;
  }
  if (int rc = compare_dirs(base_config("reference", 2).state_dir,
                            serve_config.campaign.state_dir, "chaos");
      rc != 0) {
    return rc;
  }
  std::printf(
      "chaos: state, findings and corpus byte-identical to the reference\n");

  // -- 2b. merged fleet metrics equal an --in-process run's -----------------
  // Worker observations travel only inside adopted durable shard results,
  // so crashed workers' partial counts are discarded and the merged totals
  // must equal a run where every shard executes inline in the supervisor.
  std::printf("obs: comparing merged fleet metrics with an in-process run...\n");
  hdiff::serve::ServeConfig inproc_config;
  inproc_config.campaign = base_config("inproc", 2);
  inproc_config.shards = 4;
  hdiff::obs::Registry inproc_reg;
  hdiff::serve::FleetMetrics inproc_fleet(&inproc_reg);
  inproc_config.obs.metrics = &inproc_reg;
  inproc_config.campaign.obs.metrics = &inproc_reg;
  inproc_config.fleet = &inproc_fleet;
  try {
    hdiff::serve::Supervisor inproc(inproc_config, fleet);
    hdiff::serve::ServeReport inproc_report = inproc.run();
    if (!inproc_report.error.empty()) {
      std::printf("selftest FAILED: %s\n", inproc_report.error.c_str());
      return 1;
    }
  } catch (const hdiff::net::ChainFault& fault) {
    std::printf("selftest FAILED: %s\n", fault.what());
    return 1;
  }
  auto counter_value = [](const hdiff::obs::Registry& reg,
                          const std::string& name) -> long long {
    for (const auto& [n, v] : reg.snapshot().counters) {
      if (n == name) return static_cast<long long>(v);
    }
    return -1;
  };
  auto hist_count = [](const hdiff::obs::Registry& reg,
                       const std::string& name) -> long long {
    for (const auto& h : reg.snapshot().histograms) {
      if (h.name == name) return static_cast<long long>(h.count);
    }
    return -1;
  };
  const char* equal_counters[] = {
      "hdiff_campaign_rounds_total", "hdiff_campaign_cases_total",
      "hdiff_campaign_novel_total", "hdiff_campaign_duplicate_total"};
  int obs_rc = 0;
  for (const char* name : equal_counters) {
    const long long a = counter_value(chaos_reg, name);
    const long long b = counter_value(inproc_reg, name);
    if (a < 0 || a != b) {
      std::printf("selftest FAILED: %s chaos=%lld in-process=%lld\n", name, a,
                  b);
      obs_rc = 1;
    }
  }
  const long long chaos_obs = hist_count(chaos_reg, "hdiff_chain_observe_micros");
  const long long inproc_obs =
      hist_count(inproc_reg, "hdiff_chain_observe_micros");
  if (chaos_obs <= 0 || chaos_obs != inproc_obs) {
    std::printf(
        "selftest FAILED: hdiff_chain_observe_micros count chaos=%lld "
        "in-process=%lld (want equal and > 0)\n",
        chaos_obs, inproc_obs);
    obs_rc = 1;
  }
  if (obs_rc != 0) return obs_rc;
  const std::string exposition = chaos_fleet.render();
  if (exposition.find("process=\"worker\",shard=\"all\"") == std::string::npos ||
      exposition.find("hdiff_chain_observe_micros_count") ==
          std::string::npos) {
    std::printf(
        "selftest FAILED: merged exposition lacks worker-labeled series\n");
    return 1;
  }
  std::printf(
      "obs: chaos fleet totals equal the in-process run "
      "(chain observations: %lld)\n",
      chaos_obs);

  // -- 2c. stitched trace: distinct supervisor and worker tracks ------------
  const std::string trace_json = chaos_sink.render_chrome_json();
  std::size_t tracks = 0;
  for (std::size_t at = 0;
       (at = trace_json.find("\"process_name\"", at)) != std::string::npos;
       ++at) {
    ++tracks;
  }
  if (tracks < 2 || trace_json.find("supervisor") == std::string::npos ||
      trace_json.find("worker shard") == std::string::npos) {
    std::printf(
        "selftest FAILED: stitched trace wants a supervisor track and >=1 "
        "worker track, got %zu process_name record(s)\n",
        tracks);
    return 1;
  }
  std::printf("trace: %zu process track(s) stitched\n", tracks);

  // -- 2d. flight recorder replays the chaos lifecycle ----------------------
  hdiff::serve::FlightRecorder chaos_flight(serve_config.campaign.state_dir);
  chaos_flight.load();
  const std::vector<hdiff::serve::FlightEvent> chaos_events =
      chaos_flight.events_since(0);
  std::set<std::string> kinds;
  std::uint64_t prev_seq = 0;
  bool monotonic = true;
  for (const auto& event : chaos_events) {
    if (event.seq <= prev_seq) monotonic = false;
    prev_seq = event.seq;
    kinds.insert(event.kind);
  }
  const char* want_kinds[] = {"start",     "spawn",        "worker_death",
                              "hang_kill", "restart",      "round_commit"};
  int flight_rc = monotonic ? 0 : 1;
  if (!monotonic) {
    std::printf("selftest FAILED: flight seqs not strictly increasing\n");
  }
  for (const char* kind : want_kinds) {
    if (!kinds.count(kind)) {
      std::printf("selftest FAILED: flight recorder missing \"%s\" event\n",
                  kind);
      flight_rc = 1;
    }
  }
  if (flight_rc != 0) return flight_rc;
  std::printf("flight: %zu event(s), full chaos lifecycle replayed\n",
              chaos_events.size());

  // -- 3. graceful drain + resume -------------------------------------------
  std::printf("drain: stopping a 4-round campaign via the control plane...\n");
  camp::CampaignEngine drain_reference(base_config("drain-reference", 4));
  camp::CampaignReport drain_ref_report = drain_reference.run(fleet);
  if (!drain_ref_report.error.empty()) {
    std::printf("selftest FAILED: %s\n", drain_ref_report.error.c_str());
    return 1;
  }

  hdiff::serve::ServeConfig drain_config;
  drain_config.campaign = base_config("drain", 4);
  drain_config.shards = 2;
  drain_config.worker_binary = self;
  drain_config.worker_args = {"--mini", "--budget", "24"};
  drain_config.heartbeat_interval_ms = 60;
  hdiff::obs::Registry drain_reg;
  hdiff::serve::FleetMetrics drain_fleet(&drain_reg);
  drain_config.obs.metrics = &drain_reg;
  drain_config.campaign.obs.metrics = &drain_reg;
  drain_config.fleet = &drain_fleet;
  hdiff::serve::ServeReport drain_report;
  std::atomic<bool> run_done{false};
  std::atomic<bool> stop_posted{false};
  std::atomic<bool> health_ok{false};
  // Written by the stopper thread, read only after it joins.
  std::string live_events_body, live_status_body;
  try {
    hdiff::serve::Supervisor supervisor(drain_config, fleet);
    const std::uint16_t port = supervisor.port();
    std::thread stopper([&] {
      while (!run_done.load()) {
        ControlProbe health = control_get(port, "GET", "/healthz");
        if (health.status == 200) health_ok.store(true);
        ControlProbe status = control_get(port, "GET", "/status");
        if (status.status == 200 &&
            status.body.find("\"rounds_completed\":0") == std::string::npos &&
            !status.body.empty()) {
          live_status_body = status.body;
          ControlProbe live_events =
              control_get(port, "GET", "/events?since=0");
          if (live_events.status == 200) live_events_body = live_events.body;
          ControlProbe stop =
              control_get(port, "POST", "/campaigns/default/stop");
          if (stop.status == 202) {
            stop_posted.store(true);
            return;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    drain_report = supervisor.run();
    run_done.store(true);
    stopper.join();
  } catch (const hdiff::net::ChainFault& fault) {
    std::printf("selftest FAILED: %s\n", fault.what());
    return 1;
  }
  if (!drain_report.error.empty()) {
    std::printf("selftest FAILED: %s\n", drain_report.error.c_str());
    return 1;
  }
  if (!stop_posted.load() || !drain_report.drained) {
    std::printf(
        "selftest FAILED: drain did not engage (stop posted: %d, drained: "
        "%d) — the campaign finished before the stop landed\n",
        stop_posted.load() ? 1 : 0, drain_report.drained ? 1 : 0);
    return 1;
  }
  if (!health_ok.load()) {
    std::printf("selftest FAILED: /healthz never answered 200\n");
    return 1;
  }
  if (live_events_body.find("\"next_seq\":") == std::string::npos ||
      live_events_body.find("\"kind\":\"spawn\"") == std::string::npos) {
    std::printf(
        "selftest FAILED: live GET /events lacks next_seq/spawn: %s\n",
        live_events_body.c_str());
    return 1;
  }
  if (live_status_body.find("\"last_heartbeat_ms\":") == std::string::npos) {
    std::printf("selftest FAILED: /status lacks last_heartbeat_ms\n");
    return 1;
  }
  std::printf("drain: committed %zu round(s) then stopped; resuming...\n",
              drain_report.rounds_run);
  try {
    hdiff::serve::Supervisor resumer(drain_config, fleet);
    hdiff::serve::ServeReport resume_report = resumer.run();
    if (!resume_report.error.empty() || !resume_report.resumed) {
      std::printf("selftest FAILED: resume failed (%s)\n",
                  resume_report.error.c_str());
      return 1;
    }
  } catch (const hdiff::net::ChainFault& fault) {
    std::printf("selftest FAILED: %s\n", fault.what());
    return 1;
  }
  if (int rc = compare_dirs(base_config("drain-reference", 4).state_dir,
                            drain_config.campaign.state_dir, "drain+resume");
      rc != 0) {
    return rc;
  }

  // Flight seq numbering must continue across the two supervisor
  // generations: the resumer's "resume" event carries a seq above every
  // event the drained daemon persisted, and the file replays both lives.
  hdiff::serve::FlightRecorder drain_flight(drain_config.campaign.state_dir);
  drain_flight.load();
  std::set<std::string> drain_kinds;
  std::uint64_t drain_prev = 0;
  bool drain_monotonic = true;
  for (const auto& event : drain_flight.events_since(0)) {
    if (event.seq <= drain_prev) drain_monotonic = false;
    drain_prev = event.seq;
    drain_kinds.insert(event.kind);
  }
  if (!drain_monotonic || !drain_kinds.count("start") ||
      !drain_kinds.count("stop") || !drain_kinds.count("drain") ||
      !drain_kinds.count("resume") || !drain_kinds.count("round_commit")) {
    std::printf(
        "selftest FAILED: flight events not continuous across restart "
        "(monotonic=%d, %zu kind(s))\n",
        drain_monotonic ? 1 : 0, drain_kinds.size());
    return 1;
  }
  std::printf("flight: seq numbering continuous across drain + resume\n");

  // Control-plane request counters (satellite): every probe the stopper
  // sent was dispatched with metrics on, so the per-(target,status)
  // counters must be present in the merged exposition.
  const std::string drain_exposition = drain_fleet.render();
  if (drain_exposition.find("hdiff_serve_control_requests_total{target=\"/"
                            "status\",status=\"200\"}") == std::string::npos) {
    std::printf(
        "selftest FAILED: exposition lacks "
        "hdiff_serve_control_requests_total{target=\"/status\",...}\n");
    return 1;
  }

  std::printf(
      "selftest PASSED: sharded daemon byte-identical to the single-process "
      "engine under 2 SIGKILLs, 1 hang, and a drain+resume (%zu finding(s), "
      "%zu corpus entr%s)\n",
      chaos_report.total_findings, chaos_report.corpus_entries,
      chaos_report.corpus_entries == 1 ? "y" : "ies");
  fs::remove_all(root, ec);
  return 0;
}

/// `selftest --serve-soak --seconds N`: run the daemon under continuous
/// random worker SIGKILLs and assert /healthz is never unready for more
/// than two heartbeat intervals (restart-within-one-interval plus detection
/// slack).  Drains via the control plane at the deadline.
int selftest_serve_soak(int seconds, std::size_t jobs) {
  namespace fs = std::filesystem;
  namespace camp = hdiff::campaign;

  const fs::path root =
      fs::temp_directory_path() /
      ("hdiff-selftest-serve-soak-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(root, ec);

  const int heartbeat_ms = 200;
  hdiff::serve::ServeConfig config;
  config.campaign.state_dir = (root / "soak").string();
  config.campaign.rounds = 1000000;  // effectively: until drained
  config.campaign.budget_per_round = 24;
  config.campaign.executor.jobs = jobs == 0 ? 1 : jobs;
  config.campaign.bootstrap = hdiff::core::verification_probes();
  config.shards = 4;
  config.worker_binary = self_exe_path();
  config.worker_args = {"--mini", "--budget", "24"};
  config.heartbeat_interval_ms = heartbeat_ms;
  config.quarantine_after = 1 << 20;  // soak exercises respawn, not inline

  auto fleet = hdiff::impls::make_all_implementations();
  hdiff::serve::ServeReport report;
  std::atomic<bool> run_done{false};
  std::atomic<long> max_unready_ms{0};
  std::atomic<long> kills{0};
  try {
    hdiff::serve::Supervisor supervisor(config, fleet);
    const std::uint16_t port = supervisor.port();
    std::printf("soak: %d s on 127.0.0.1:%u, heartbeat %d ms...\n", seconds,
                static_cast<unsigned>(port), heartbeat_ms);

    // Killer: SIGKILL a live worker pid from /status every ~150 ms.
    std::thread killer([&] {
      std::size_t turn = 0;
      while (!run_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        ControlProbe status = control_get(port, "GET", "/status");
        if (status.status != 200) continue;
        std::vector<long> pids;
        std::size_t at = 0;
        while ((at = status.body.find("\"pid\":", at)) != std::string::npos) {
          const long pid = std::atol(status.body.c_str() + at + 6);
          if (pid > 1) pids.push_back(pid);
          ++at;
        }
        if (pids.empty()) continue;
        ::kill(static_cast<pid_t>(pids[turn++ % pids.size()]), SIGKILL);
        kills.fetch_add(1);
      }
    });

    // Prober: GET /healthz every 20 ms; track the longest unready streak.
    std::thread prober([&] {
      using SoakClock = std::chrono::steady_clock;
      std::chrono::steady_clock::time_point down_since{};
      bool down = false;
      while (!run_done.load()) {
        ControlProbe health = control_get(port, "GET", "/healthz");
        const auto now = SoakClock::now();
        if (health.status == 200) {
          if (down) {
            const long ms =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - down_since)
                    .count();
            if (ms > max_unready_ms.load()) max_unready_ms.store(ms);
            down = false;
          }
        } else if (!down) {
          down = true;
          down_since = now;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

    std::thread stopper([&] {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
      while (!run_done.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      while (!run_done.load()) {
        ControlProbe stop =
            control_get(port, "POST", "/campaigns/default/stop");
        if (stop.status == 202) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });

    report = supervisor.run();
    run_done.store(true);
    killer.join();
    prober.join();
    stopper.join();
  } catch (const hdiff::net::ChainFault& fault) {
    std::printf("selftest FAILED: %s\n", fault.what());
    return 1;
  }

  if (!report.error.empty()) {
    std::printf("selftest FAILED: %s\n", report.error.c_str());
    return 1;
  }
  const long limit = 2L * heartbeat_ms;
  std::printf(
      "soak: %zu round(s), %ld kill(s) sent, %zu death(s), %zu restart(s), "
      "max /healthz unready streak %ld ms (limit %ld)\n",
      report.rounds_run, kills.load(), report.worker_deaths,
      report.worker_restarts, max_unready_ms.load(), limit);
  if (!report.drained) {
    std::printf("selftest FAILED: soak did not drain cleanly\n");
    return 1;
  }
  if (max_unready_ms.load() > limit) {
    std::printf(
        "selftest FAILED: /healthz unready for %ld ms (> 2 heartbeat "
        "intervals)\n",
        max_unready_ms.load());
    return 1;
  }
  std::printf("selftest PASSED: daemon stayed ready under %ld random worker "
              "SIGKILL(s)\n",
              kills.load());
  fs::remove_all(root, ec);
  return 0;
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
  if (cmd == "selftest") return cmd_selftest(argc, argv);
  if (cmd == "lint") return cmd_lint(argc, argv);
  if (cmd == "campaign") return cmd_campaign(argc, argv);
  if (cmd == "serve") return cmd_serve(argc, argv);
  if (cmd == "serve-worker") return cmd_serve_worker(argc, argv);
  if (cmd == "tail") return cmd_tail(argc, argv);
  if (cmd == "audit") return cmd_audit(argc, argv);
  if (cmd == "parse") return cmd_parse(argc, argv);
  return usage();
}
