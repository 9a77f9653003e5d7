// E8: component micro-benchmarks — parser, generator, chain, and pipeline
// stage throughput.
#include <benchmark/benchmark.h>

#include "abnf/generator.h"
#include "abnf/parser.h"
#include "core/analyzer.h"
#include "core/executor.h"
#include "core/hdiff.h"
#include "corpus/registry.h"
#include "http/lexer.h"
#include "http/view.h"
#include "impls/products.h"
#include "net/chain.h"
#include "text/dependency.h"
#include "text/sentiment.h"

namespace {

const std::string kRequest =
    "POST /path?q=1 HTTP/1.1\r\nHost: h1.com\r\nContent-Length: 5\r\n"
    "Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n";

void BM_LexRequest(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdiff::http::lex_request(kRequest));
  }
}
BENCHMARK(BM_LexRequest);

void BM_ViewParseRequest(benchmark::State& state) {
  // The zero-copy counterpart of BM_LexRequest on a warmed, reused view
  // (DESIGN.md §11); bench_zero_copy --check gates the 0-allocation claim.
  hdiff::http::RequestView view;
  parse_request_view(kRequest, view);
  for (auto _ : state) {
    parse_request_view(kRequest, view);
    benchmark::DoNotOptimize(&view);
  }
}
BENCHMARK(BM_ViewParseRequest);

void BM_ServerParse(benchmark::State& state) {
  auto impl = hdiff::impls::make_implementation("tomcat");
  for (auto _ : state) {
    benchmark::DoNotOptimize(impl->parse_request(kRequest));
  }
}
BENCHMARK(BM_ServerParse);

void BM_ProxyForward(benchmark::State& state) {
  auto impl = hdiff::impls::make_implementation("haproxy");
  for (auto _ : state) {
    benchmark::DoNotOptimize(impl->forward_request(kRequest));
  }
}
BENCHMARK(BM_ProxyForward);

void BM_ChainObserve(benchmark::State& state) {
  auto fleet = hdiff::impls::make_all_implementations();
  auto chain = hdiff::net::Chain::from_fleet(fleet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.observe("bench", kRequest));
  }
}
BENCHMARK(BM_ChainObserve);

/// The standard case mix (probes + SR translations + ABNF cases) exactly as
/// the default pipeline executes it, generated once and shared by all
/// BM_DifferentialEngine variants.
const std::vector<hdiff::core::TestCase>& standard_case_mix() {
  static const std::vector<hdiff::core::TestCase> cases = [] {
    hdiff::core::Pipeline pipeline{hdiff::core::PipelineConfig{}};
    return pipeline.run().executed_cases;
  }();
  return cases;
}

/// Differential-engine throughput: observe + evaluate + accumulate over the
/// standard case mix.  Args are {jobs, memoize}; {1, 0} is the seed's serial
/// every-case-from-scratch loop.  The executor (and thus both caches) is
/// constructed inside the timed loop, so every iteration starts cold —
/// hit-rate counters report the steady single-run value.
void BM_DifferentialEngine(benchmark::State& state) {
  const auto& cases = standard_case_mix();
  auto fleet = hdiff::impls::make_all_implementations();
  auto chain = hdiff::net::Chain::from_fleet(fleet);
  hdiff::core::ExecutorConfig config;
  config.jobs = static_cast<std::size_t>(state.range(0));
  config.memoize = state.range(1) != 0;
  hdiff::core::ExecutorStats stats;
  for (auto _ : state) {
    hdiff::core::ParallelExecutor executor(config);
    benchmark::DoNotOptimize(executor.run(chain, cases, &stats));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cases.size()));
  state.counters["cases"] = static_cast<double>(cases.size());
  state.counters["memo_hit_rate"] = stats.memo_hit_rate();
  state.counters["verdict_hit_rate"] = stats.verdict_hit_rate();
}
BENCHMARK(BM_DifferentialEngine)
    ->Args({1, 0})  // seed path: serial, no caches
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({8, 0})
    ->UseRealTime()  // count worker threads' time; CPU time only sees main
    ->Unit(benchmark::kMillisecond);

void BM_AbnfExtract(benchmark::State& state) {
  const auto* doc = hdiff::corpus::find_document("rfc7230");
  std::string cleaned = hdiff::abnf::clean_rfc_text(doc->text);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hdiff::abnf::extract_abnf(cleaned, "rfc7230"));
  }
}
BENCHMARK(BM_AbnfExtract);

void BM_AbnfEnumerateHost(benchmark::State& state) {
  hdiff::core::DocumentationAnalyzer analyzer;
  auto result = analyzer.analyze({"rfc7230"});
  hdiff::abnf::Generator gen(result.grammar);
  hdiff::abnf::load_default_http_predefined(gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.enumerate("Host", 64));
  }
}
BENCHMARK(BM_AbnfEnumerateHost);

void BM_SentimentScore(benchmark::State& state) {
  hdiff::text::SentimentClassifier classifier;
  const std::string sentence =
      "A server MUST respond with a 400 (Bad Request) status code to any "
      "HTTP/1.1 request message that lacks a Host header field.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.score(sentence));
  }
}
BENCHMARK(BM_SentimentScore);

void BM_DependencyParse(benchmark::State& state) {
  const std::string sentence =
      "A server MUST reject any received request message that contains "
      "whitespace between a header field-name and colon.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdiff::text::parse_dependencies(sentence));
  }
}
BENCHMARK(BM_DependencyParse);

}  // namespace

BENCHMARK_MAIN();
