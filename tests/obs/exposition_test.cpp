// Prometheus exposition conformance for the obs layer: metric-name
// charset, one HELP/TYPE per family (including label-embedding names),
// label-value escaping, histogram bucket invariants, and the cross-process
// snapshot/absorb contract the serve fleet merge is built on.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace hdiff::obs {
namespace {

/// Every line of `text`, without trailing newlines.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// The metric name of a sample line (text up to '{' or the first space).
std::string sample_name(const std::string& line) {
  const std::size_t end = line.find_first_of("{ ");
  return line.substr(0, end);
}

// ---- metric name charset --------------------------------------------------

TEST(Exposition, EveryRegisteredFamilyNameMatchesThePrometheusCharset) {
  // Instantiate the real instrument packs the codebase registers, then
  // check every name that would reach a scraper.
  Registry registry;
  Observability obs;
  obs.metrics = &registry;
  (void)ChainObs::from(obs);
  (void)ServeObs::from(obs);

  const Registry::Snapshot snap = registry.snapshot();
  auto check = [](const std::string& name) {
    // A registered name may embed a label set; the charset rule applies to
    // the base name (the renderer splits the rest into labels).
    const std::string base = name.substr(0, name.find('{'));
    EXPECT_TRUE(valid_metric_name(base)) << "bad metric name: " << name;
  };
  for (const auto& [name, value] : snap.counters) check(name);
  for (const auto& [name, value] : snap.gauges) check(name);
  for (const auto& row : snap.histograms) check(row.name);
  EXPECT_FALSE(snap.counters.empty());
}

TEST(Exposition, SampleLinesParseAsNameLabelsValue) {
  Registry registry;
  registry.counter("hdiff_a_total").add(3);
  registry.gauge("hdiff_b").set(-7);
  registry.histogram("hdiff_c_micros", {1, 10}).observe(5);
  for (const std::string& line : lines_of(render_prometheus(registry))) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_TRUE(valid_metric_name(sample_name(line))) << line;
    // Exactly one space between series and value.
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_FALSE(line.substr(space + 1).empty()) << line;
  }
}

// ---- HELP / TYPE ----------------------------------------------------------

TEST(Exposition, HelpAndTypeEmittedOncePerFamily) {
  // Two label sets of one counter family plus a labeled gauge family: the
  // family header must appear once, before any of its samples.
  Registry registry;
  registry.help("hdiff_ctrl_total", "control-plane requests");
  registry
      .counter(labeled_name("hdiff_ctrl_total", prom_label("target", "/a")))
      .add(1);
  registry
      .counter(labeled_name("hdiff_ctrl_total", prom_label("target", "/b")))
      .add(2);
  registry.gauge(labeled_name("hdiff_age_ms", prom_label("shard", "0")))
      .set(5);
  registry.gauge(labeled_name("hdiff_age_ms", prom_label("shard", "1")))
      .set(6);

  const std::string text = render_prometheus(registry);
  auto count_prefix = [&](const std::string& prefix) {
    std::size_t n = 0;
    for (const std::string& line : lines_of(text)) {
      if (line.rfind(prefix, 0) == 0) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_prefix("# TYPE hdiff_ctrl_total counter"), 1u) << text;
  EXPECT_EQ(count_prefix("# HELP hdiff_ctrl_total control-plane requests"),
            1u)
      << text;
  EXPECT_EQ(count_prefix("# TYPE hdiff_age_ms gauge"), 1u) << text;
  EXPECT_EQ(count_prefix("hdiff_ctrl_total{target=\"/a\"} 1"), 1u) << text;
  EXPECT_EQ(count_prefix("hdiff_ctrl_total{target=\"/b\"} 2"), 1u) << text;

  // The TYPE line precedes every sample of its family.
  const std::vector<std::string> lines = lines_of(text);
  std::size_t type_at = lines.size(), first_sample_at = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("# TYPE hdiff_ctrl_total", 0) == 0) type_at = i;
    if (lines[i].rfind("hdiff_ctrl_total{", 0) == 0) {
      first_sample_at = std::min(first_sample_at, i);
    }
  }
  EXPECT_LT(type_at, first_sample_at);
}

TEST(Exposition, HelpFirstRegistrationWins) {
  Registry registry;
  registry.help("hdiff_x_total", "first");
  registry.help("hdiff_x_total", "second");
  registry.counter("hdiff_x_total").add(1);
  const std::string text = render_prometheus(registry);
  EXPECT_NE(text.find("# HELP hdiff_x_total first\n"), std::string::npos);
  EXPECT_EQ(text.find("second"), std::string::npos);
}

// ---- label escaping -------------------------------------------------------

TEST(Exposition, LabelValueEscaping) {
  EXPECT_EQ(prom_escape_label_value("plain"), "plain");
  EXPECT_EQ(prom_escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(prom_escape_label_value("a\nb"), "a\\nb");
  EXPECT_EQ(prom_label("k", "v\"\n\\"), "k=\"v\\\"\\n\\\\\"");
}

TEST(Exposition, HostileLabelValueRendersEscaped) {
  Registry registry;
  registry
      .counter(labeled_name("hdiff_esc_total",
                            prom_label("target", "/x\"y\\z\nw")))
      .add(1);
  const std::string text = render_prometheus(registry);
  EXPECT_NE(
      text.find("hdiff_esc_total{target=\"/x\\\"y\\\\z\\nw\"} 1"),
      std::string::npos)
      << text;
  // No raw newline may survive inside a sample line.
  for (const std::string& line : lines_of(text)) {
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
}

// ---- histogram bucket invariants ------------------------------------------

TEST(Exposition, HistogramBucketsAreCumulativeAndEndAtInf) {
  Registry registry;
  Histogram& h = registry.histogram("hdiff_lat_micros", {10, 100, 1000});
  for (std::uint64_t v : {1u, 5u, 50u, 500u, 5000u, 50000u}) h.observe(v);

  const std::string text = render_prometheus(registry);
  std::vector<std::uint64_t> bucket_values;
  std::uint64_t count_value = 0;
  bool saw_sum = false, saw_inf = false;
  for (const std::string& line : lines_of(text)) {
    if (line.rfind("hdiff_lat_micros_bucket{", 0) == 0) {
      bucket_values.push_back(
          std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10));
      if (line.find("le=\"+Inf\"") != std::string::npos) saw_inf = true;
    } else if (line.rfind("hdiff_lat_micros_sum ", 0) == 0) {
      saw_sum = true;
    } else if (line.rfind("hdiff_lat_micros_count ", 0) == 0) {
      count_value =
          std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10);
    }
  }
  ASSERT_EQ(bucket_values.size(), 4u) << text;  // 3 bounds + +Inf
  EXPECT_TRUE(saw_inf);
  EXPECT_TRUE(saw_sum);
  for (std::size_t i = 1; i < bucket_values.size(); ++i) {
    EXPECT_GE(bucket_values[i], bucket_values[i - 1]) << "not cumulative";
  }
  EXPECT_EQ(bucket_values.back(), count_value) << "+Inf bucket != _count";
  EXPECT_EQ(count_value, 6u);
}

// ---- snapshot / absorb ----------------------------------------------------

TEST(Exposition, AbsorbSumsCountersMergesHistogramsSetsGauges) {
  Registry worker;
  worker.counter("hdiff_cases_total").add(10);
  worker.gauge("hdiff_depth").set(3);
  worker.histogram("hdiff_lat_micros", {10, 100}).observe(7);
  worker.histogram("hdiff_lat_micros").observe(70);
  const Registry::Snapshot snap = worker.snapshot();

  Registry total;
  total.counter("hdiff_cases_total").add(1);
  EXPECT_EQ(total.absorb(snap), 0u);
  EXPECT_EQ(total.absorb(snap), 0u);  // absorb is additive, not idempotent

  const Registry::Snapshot merged = total.snapshot();
  ASSERT_EQ(merged.counters.size(), 1u);
  EXPECT_EQ(merged.counters[0].second, 21u);  // 1 + 10 + 10
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_EQ(merged.gauges[0].second, 3);
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count, 4u);
  EXPECT_EQ(merged.histograms[0].sum, 154u);
  ASSERT_EQ(merged.histograms[0].buckets.size(), 3u);
  EXPECT_EQ(merged.histograms[0].buckets[0], 2u);   // 7 <= 10, twice
  EXPECT_EQ(merged.histograms[0].buckets[1], 2u);   // 70 <= 100, twice
  EXPECT_EQ(merged.histograms[0].buckets[2], 0u);
}

TEST(Exposition, AbsorbDropsHistogramWithMismatchedBounds) {
  Registry worker;
  worker.histogram("hdiff_lat_micros", {1, 2, 3}).observe(1);
  Registry total;
  total.histogram("hdiff_lat_micros", {10, 100}).observe(5);
  EXPECT_EQ(total.absorb(worker.snapshot()), 1u);
  EXPECT_EQ(total.snapshot().histograms[0].count, 1u);  // unchanged
}

// ---- merged multi-view render ---------------------------------------------

TEST(Exposition, MergedViewsShareOneFamilyHeaderAndStampOriginLabels) {
  Registry total, worker0, worker1;
  total.help("hdiff_cases_total", "cases observed");
  total.counter("hdiff_cases_total").add(30);
  worker0.counter("hdiff_cases_total").add(10);
  worker1.counter("hdiff_cases_total").add(20);
  // An embedded-label series on one origin must merge its labels with the
  // view's (view labels first).
  worker1.counter(labeled_name("hdiff_ctrl_total", prom_label("target", "/s")))
      .add(4);

  const std::string text = render_prometheus({
      {&total, ""},
      {&worker0, "process=\"worker\",shard=\"0\""},
      {&worker1, "process=\"worker\",shard=\"1\""},
  });
  std::size_t type_lines = 0;
  for (const std::string& line : lines_of(text)) {
    if (line.rfind("# TYPE hdiff_cases_total", 0) == 0) ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u) << text;
  EXPECT_NE(text.find("# HELP hdiff_cases_total cases observed"),
            std::string::npos);
  EXPECT_NE(text.find("hdiff_cases_total 30"), std::string::npos);
  EXPECT_NE(
      text.find("hdiff_cases_total{process=\"worker\",shard=\"0\"} 10"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("hdiff_cases_total{process=\"worker\",shard=\"1\"} 20"),
      std::string::npos);
  EXPECT_NE(text.find("hdiff_ctrl_total{process=\"worker\",shard=\"1\","
                      "target=\"/s\"} 4"),
            std::string::npos)
      << text;
}

TEST(Exposition, SingleRegistryRenderIsTheUnlabeledView) {
  Registry registry;
  registry.counter("hdiff_one_total").add(1);
  registry.histogram("hdiff_lat_micros", {10}).observe(3);
  EXPECT_EQ(render_prometheus(registry),
            render_prometheus({{&registry, ""}}));
}

}  // namespace
}  // namespace hdiff::obs
