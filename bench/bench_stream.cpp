// E16: connection-level stream observation and campaign throughput.
//
// Two costs matter for the stream subsystem.  First, the per-stream
// observation: `Chain::observe_stream` runs every back-end's connection
// automaton over the message sequence, forwards message-by-message through
// every proxy, and re-runs the automaton over each forwarded stream — a
// (backends + proxies + proxies*backends)-leg pass whose cost should scale
// with stream length, not explode with it.  Second, the campaign overhead:
// a `--streams` campaign spends `stream_budget_per_round` extra cases per
// round on connection-level shapes; the bar is that those cases price like
// ordinary cases (the observation above) plus detector evaluation, with the
// stream-finding yield reported as a counter so the trajectory shows what
// the extra budget buys.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "campaign/engine.h"
#include "core/probes.h"
#include "core/stream_detect.h"
#include "impls/products.h"
#include "net/stream.h"
#include "stream/mutate.h"
#include "stream/seeds.h"

namespace {

namespace fs = std::filesystem;

std::string fresh_dir() {
  static int counter = 0;
  const fs::path dir =
      fs::temp_directory_path() /
      ("hdiff-bench-stream-" + std::to_string(::getpid()) + "-" +
       std::to_string(counter++));
  fs::remove_all(dir);
  return dir.string();
}

const std::vector<std::unique_ptr<hdiff::impls::HttpImplementation>>& fleet() {
  static const auto f = hdiff::impls::make_all_implementations();
  return f;
}

const hdiff::net::Chain& chain() {
  static const auto c = hdiff::net::Chain::from_fleet(fleet());
  return c;
}

const hdiff::stream::RequestStream& seed_named(const char* name) {
  for (const auto& s : hdiff::stream::default_stream_seeds()) {
    if (s.name == name) return s.stream;
  }
  static const hdiff::stream::RequestStream empty;
  return empty;
}

/// A pipelined stream of `n` plain GETs: the stream-length scaling probe.
hdiff::stream::RequestStream pipeline_of(std::size_t n) {
  std::vector<hdiff::http::RequestSpec> messages;
  for (std::size_t i = 0; i < n; ++i) {
    messages.push_back(
        hdiff::http::make_get("origin.example", "/r" + std::to_string(i)));
  }
  return hdiff::stream::make_stream(std::move(messages));
}

// One full connection-level observation (all direct, proxy and relayed
// legs) per iteration, over stream length.
void BM_StreamObserve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<std::string> wires = pipeline_of(n).wires();
  std::size_t legs = 0;
  for (auto _ : state) {
    const hdiff::net::StreamObservation obs =
        chain().observe_stream("bench", wires);
    legs = obs.direct.size() + obs.proxies.size() + obs.relayed.size();
    benchmark::DoNotOptimize(obs.wire.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.counters["connection_legs"] = static_cast<double>(legs);
}
BENCHMARK(BM_StreamObserve)
    ->ArgNames({"messages"})
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// Observation + all three stream detectors over the flagship desync seed —
// the per-case cost a `--streams` campaign actually pays.
void BM_StreamObserveAndDetect(benchmark::State& state) {
  const std::vector<std::string> wires = seed_named("fat-get").wires();
  const hdiff::core::StreamDetector detector(chain());
  std::size_t findings = 0;
  for (auto _ : state) {
    const hdiff::net::StreamObservation obs =
        chain().observe_stream("bench", wires);
    const hdiff::core::StreamDetectionResult result =
        detector.evaluate(obs);
    findings = result.findings.size();
    benchmark::DoNotOptimize(result.any());
  }
  state.counters["findings_per_case"] = static_cast<double>(findings);
}
BENCHMARK(BM_StreamObserveAndDetect)->Unit(benchmark::kMicrosecond);

// Exhaustive mutant enumeration per seed: the planner's per-entry cost when
// an arm's variants are materialized for cursor rotation.
void BM_StreamMutants(benchmark::State& state) {
  std::size_t mutants = 0;
  for (auto _ : state) {
    for (const auto& seed : hdiff::stream::default_stream_seeds()) {
      const auto variants = hdiff::stream::stream_mutants(seed.stream);
      mutants += variants.size();
      benchmark::DoNotOptimize(variants.size());
    }
  }
  state.counters["mutants_per_pass"] =
      static_cast<double>(mutants) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_StreamMutants);

// Whole campaigns with streams off vs on, same budget: the marginal cost of
// the connection-level schedule and what it yields (stream corpus entries
// and total findings as counters).
void BM_StreamCampaign(benchmark::State& state) {
  const bool streams = state.range(0) != 0;
  std::size_t findings = 0, stream_entries = 0;
  for (auto _ : state) {
    hdiff::campaign::CampaignConfig config;
    config.state_dir = fresh_dir();
    config.rounds = 2;
    config.budget_per_round = 24;
    config.minimize.max_steps = 128;
    config.executor.jobs = 4;
    config.bootstrap = hdiff::core::verification_probes();
    config.streams = streams;
    const auto report = hdiff::campaign::CampaignEngine(config).run(fleet());
    findings = report.total_findings;
    stream_entries = report.stream_entries;
    benchmark::DoNotOptimize(report.rounds_completed);
    fs::remove_all(config.state_dir);
  }
  state.counters["findings"] = static_cast<double>(findings);
  state.counters["stream_entries"] = static_cast<double>(stream_entries);
}
BENCHMARK(BM_StreamCampaign)
    ->ArgNames({"streams"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
