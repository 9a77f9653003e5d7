// E14: zero-copy parse path.
//
// A warmed RequestView / ResponseView / ChunkScan re-parses with ZERO heap
// allocations (0 allocations per header), vs. the owned lexer which
// allocates per header field.  `--check` runs this as a strict pass/fail
// gate (the `bench_zero_copy_alloc_check` ctest entry, label `netperf`) so
// an allocation regression fails CI, not just a chart.
//
// Allocation counting replaces global operator new/delete for this binary
// only: every successful allocation bumps one relaxed atomic, and checks
// read deltas around the region of interest.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <string_view>

#include "http/chunked.h"
#include "http/lexer.h"
#include "http/response.h"
#include "http/view.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) {
    return p;
  }
  throw std::bad_alloc();
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

// A request shape representative of the observe hot path: enough headers
// that a per-header allocation would show up as >= 8 per parse.
const std::string kRequest =
    "POST /path?q=1&x=2 HTTP/1.1\r\n"
    "Host: h1.example.com\r\n"
    "User-Agent: hdiff-bench/1.0\r\n"
    "Accept: */*\r\n"
    "Accept-Encoding: gzip, deflate\r\n"
    "X-Forwarded-For: 10.0.0.1\r\n"
    "Cookie: a=1; b=2; c=3\r\n"
    "Content-Length: 5\r\n"
    "Transfer-Encoding: chunked\r\n"
    "\r\n0\r\n\r\n";

const std::string kResponse =
    "HTTP/1.1 200 OK\r\n"
    "Server: hdiff-model\r\n"
    "Date: Thu, 01 Jan 1970 00:00:00 GMT\r\n"
    "Content-Type: text/plain\r\n"
    "Cache-Control: no-store\r\n"
    "Content-Length: 5\r\n"
    "Connection: keep-alive\r\n"
    "\r\nhello";

const std::string kChunked = "3\r\nabc\r\n4;ext=x\r\ndefg\r\n0\r\n\r\n";

constexpr int kWarmIterations = 1000;

// ---------------------------------------------------------------------------
// --check mode: strict zero-allocation gate on the warm re-parse paths.
// ---------------------------------------------------------------------------

int g_check_failures = 0;

void check_zero(const char* what, std::uint64_t allocs, std::size_t units,
                const char* unit_name) {
  const double per_unit =
      static_cast<double>(allocs) /
      (static_cast<double>(kWarmIterations) * static_cast<double>(units));
  const bool ok = allocs == 0;
  std::printf("%-44s %s  (%llu allocs over %d iterations, %.4f per %s)\n",
              what, ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(allocs), kWarmIterations,
              per_unit, unit_name);
  if (!ok) ++g_check_failures;
}

int run_alloc_check() {
  using namespace hdiff::http;

  // Warm request re-parse: zero allocations, hence zero per header.
  {
    RequestView view;
    parse_request_view(kRequest, view);  // warm the vectors
    const std::size_t headers = view.headers.size();
    const std::uint64_t before = allocations();
    for (int i = 0; i < kWarmIterations; ++i) {
      parse_request_view(kRequest, view);
      benchmark::DoNotOptimize(&view);
    }
    check_zero("request re-parse (warm RequestView)", allocations() - before,
               headers, "header");
  }

  // Header lookups on a parsed view.
  {
    RequestView view;
    parse_request_view(kRequest, view);
    const std::uint64_t before = allocations();
    std::size_t hits = 0;
    for (int i = 0; i < kWarmIterations; ++i) {
      hits += view.count("cookie");
      if (view.find_first("Transfer-Encoding") != nullptr) ++hits;
    }
    benchmark::DoNotOptimize(hits);
    check_zero("find_first/count on RequestView", allocations() - before, 2,
               "lookup");
  }

  // Warm response re-parse + framing probe.
  {
    ResponseView view;
    std::string scratch;
    parse_response_view(kResponse, view);
    response_framing(view, Method::kGet, scratch);
    const std::size_t headers = view.headers().size();
    const std::uint64_t before = allocations();
    for (int i = 0; i < kWarmIterations; ++i) {
      parse_response_view(kResponse, view);
      benchmark::DoNotOptimize(response_framing(view, Method::kGet, scratch));
    }
    check_zero("response re-parse + framing (warm)", allocations() - before,
               headers, "header");
  }

  // Warm chunked re-scan.
  {
    ChunkScan scan;
    scan_chunked(kChunked, ChunkPolicy{}, scan);  // warm the range vectors
    const std::uint64_t before = allocations();
    for (int i = 0; i < kWarmIterations; ++i) {
      scan_chunked(kChunked, ChunkPolicy{}, scan);
      benchmark::DoNotOptimize(scan.body_size());
    }
    check_zero("chunked re-scan (warm ChunkScan)", allocations() - before, 2,
               "chunk");
  }

  // Stream probes: probe_first_response parses into thread_local state, so
  // the first call on a thread warms it; every call after is heap-free.
  {
    benchmark::DoNotOptimize(probe_first_response(kResponse, Method::kGet));
    const std::uint64_t before = allocations();
    for (int i = 0; i < kWarmIterations; ++i) {
      benchmark::DoNotOptimize(probe_first_response(kResponse, Method::kGet));
      benchmark::DoNotOptimize(sniff_method(kRequest));
    }
    check_zero("probe_first_response + sniff_method (warm)",
               allocations() - before, 2, "probe");
  }

  std::printf("%s: %d failure(s)\n",
              g_check_failures == 0 ? "OK" : "ALLOC REGRESSION",
              g_check_failures);
  return g_check_failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Microbenchmarks: view vs. owned parse, scan vs. decode.
// ---------------------------------------------------------------------------

void report_allocs_per_op(benchmark::State& state, std::uint64_t delta) {
  state.counters["allocs_per_op"] =
      static_cast<double>(delta) /
      static_cast<double>(state.iterations() ? state.iterations() : 1);
}

void BM_ViewParseRequestWarm(benchmark::State& state) {
  hdiff::http::RequestView view;
  parse_request_view(kRequest, view);
  const std::uint64_t before = allocations();
  for (auto _ : state) {
    parse_request_view(kRequest, view);
    benchmark::DoNotOptimize(&view);
  }
  report_allocs_per_op(state, allocations() - before);
}
BENCHMARK(BM_ViewParseRequestWarm);

void BM_OwnedLexRequest(benchmark::State& state) {
  const std::uint64_t before = allocations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdiff::http::lex_request(kRequest));
  }
  report_allocs_per_op(state, allocations() - before);
}
BENCHMARK(BM_OwnedLexRequest);

void BM_ViewParseResponseWarm(benchmark::State& state) {
  hdiff::http::ResponseView view;
  parse_response_view(kResponse, view);
  const std::uint64_t before = allocations();
  for (auto _ : state) {
    parse_response_view(kResponse, view);
    benchmark::DoNotOptimize(&view);
  }
  report_allocs_per_op(state, allocations() - before);
}
BENCHMARK(BM_ViewParseResponseWarm);

void BM_OwnedLexResponse(benchmark::State& state) {
  const std::uint64_t before = allocations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdiff::http::lex_response(kResponse));
  }
  report_allocs_per_op(state, allocations() - before);
}
BENCHMARK(BM_OwnedLexResponse);

void BM_ScanChunkedWarm(benchmark::State& state) {
  hdiff::http::ChunkScan scan;
  scan_chunked(kChunked, hdiff::http::ChunkPolicy{}, scan);
  const std::uint64_t before = allocations();
  for (auto _ : state) {
    scan_chunked(kChunked, hdiff::http::ChunkPolicy{}, scan);
    benchmark::DoNotOptimize(scan.body_size());
  }
  report_allocs_per_op(state, allocations() - before);
}
BENCHMARK(BM_ScanChunkedWarm);

void BM_DecodeChunked(benchmark::State& state) {
  const std::uint64_t before = allocations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        decode_chunked(kChunked, hdiff::http::ChunkPolicy{}));
  }
  report_allocs_per_op(state, allocations() - before);
}
BENCHMARK(BM_DecodeChunked);

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) return run_alloc_check();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
