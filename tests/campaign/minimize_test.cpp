// Delta-debug minimizer: shrinks everything the oracle does not protect,
// terminates at a fixed point (re-minimizing accepts nothing), strictly
// decreases the well-founded measure, and respects the oracle-step cap.
#include "campaign/minimize.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "http/serialize.h"

namespace hdiff::campaign {
namespace {

http::RequestSpec bloated_spec() {
  http::RequestSpec spec;
  spec.method = "POST";
  spec.target = "/submit";
  spec.sep1 = "  ";             // non-canonical: double space
  spec.line_terminator = "\n";  // non-canonical: bare LF
  spec.add("Host", "origin.example");
  spec.add("X-Junk-A", "aaaaaaaaaaaaaaaa");
  spec.add("X-Junk-B", "bbbbbbbbbbbbbbbb");
  http::HeaderSpec key;
  key.name = "Key";
  key.value = "marker";
  key.separator = " :\t";  // non-canonical separator
  key.terminator = '\n';   // non-canonical terminator
  spec.headers.push_back(key);
  spec.add("X-Junk-C", "cccccccccccccccc");
  spec.body = "a long body that the divergence never needed at all";
  return spec;
}

bool has_key_header(const http::RequestSpec& spec) {
  for (const auto& h : spec.headers) {
    if (h.name == "Key") return true;
  }
  return false;
}

TEST(MinimizeTest, ShrinksEverythingTheOracleDoesNotProtect) {
  const http::RequestSpec start = bloated_spec();
  const auto outcome = minimize_spec(start, has_key_header);

  EXPECT_TRUE(has_key_header(outcome.spec));
  EXPECT_GT(outcome.accepted, 0u);
  EXPECT_GT(outcome.steps, 0u);
  // The junk headers and the body are gone; the protected header survives.
  EXPECT_LT(outcome.spec.headers.size(), start.headers.size());
  EXPECT_TRUE(outcome.spec.body.empty());
  // Non-canonical syntax got canonicalized (the oracle never required it).
  EXPECT_EQ(outcome.spec.sep1, " ");
  EXPECT_EQ(outcome.spec.line_terminator, "\r\n");
  for (const auto& h : outcome.spec.headers) {
    EXPECT_EQ(h.separator, ": ");
    EXPECT_EQ(h.terminator, "\r\n");
  }
  EXPECT_LT(spec_measure(outcome.spec), spec_measure(start));
}

TEST(MinimizeTest, MinimizedSpecIsAFixedPoint) {
  const auto first = minimize_spec(bloated_spec(), has_key_header);
  const auto again = minimize_spec(first.spec, has_key_header);
  EXPECT_EQ(again.accepted, 0u);
  EXPECT_EQ(again.spec, first.spec);
}

TEST(MinimizeTest, ValueShrinkKeepsTheByteTheOracleWatches) {
  http::RequestSpec spec;
  spec.add("Host", "h");
  spec.add("Key", "aaaaaaaaZbbbbbbbb");
  const auto oracle = [](const http::RequestSpec& s) {
    const auto v = s.get("Key");
    return v && v->find('Z') != std::string::npos;
  };
  const auto outcome = minimize_spec(spec, oracle);
  const auto v = outcome.spec.get("Key");
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find('Z'), std::string::npos);
  EXPECT_LT(v->size(), std::string("aaaaaaaaZbbbbbbbb").size());
}

TEST(MinimizeTest, AlwaysTrueOracleStripsToTheBareRequestLine) {
  const auto outcome = minimize_spec(
      bloated_spec(), [](const http::RequestSpec&) { return true; });
  EXPECT_TRUE(outcome.spec.headers.empty());
  EXPECT_TRUE(outcome.spec.body.empty());
  EXPECT_EQ(spec_measure(outcome.spec).first, 0u);  // fully canonical
}

TEST(MinimizeTest, MaxStepsBoundsOracleInvocations) {
  std::size_t calls = 0;
  MinimizeOptions options;
  options.max_steps = 3;
  const auto outcome = minimize_spec(
      bloated_spec(),
      [&](const http::RequestSpec&) {
        ++calls;
        return true;
      },
      options);
  EXPECT_LE(outcome.steps, 3u);
  EXPECT_LE(calls, 3u);
}

TEST(MinimizeTest, MeasureOrdersCanonicalBelowNonCanonical) {
  http::RequestSpec canonical;
  canonical.add("Host", "h");
  http::RequestSpec crooked = canonical;
  crooked.headers[0].separator = " : ";
  crooked.headers[0].terminator = '\n';
  EXPECT_LT(spec_measure(canonical).first, spec_measure(crooked).first);
}

}  // namespace
}  // namespace hdiff::campaign
