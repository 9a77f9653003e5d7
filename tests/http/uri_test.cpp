#include "http/uri.h"

#include <gtest/gtest.h>

namespace hdiff::http {
namespace {

TEST(RequestTarget, OriginForm) {
  RequestTarget t = parse_request_target("/a/b?x=1");
  EXPECT_EQ(t.form, TargetForm::kOrigin);
  EXPECT_EQ(t.path, "/a/b");
  EXPECT_EQ(t.query, "x=1");
}

TEST(RequestTarget, AsteriskForm) {
  EXPECT_EQ(parse_request_target("*").form, TargetForm::kAsterisk);
}

TEST(RequestTarget, AbsoluteForm) {
  RequestTarget t = parse_request_target("http://h2.com:8080/p?q=1");
  EXPECT_EQ(t.form, TargetForm::kAbsolute);
  EXPECT_EQ(t.scheme, "http");
  EXPECT_EQ(t.authority.host, "h2.com");
  EXPECT_EQ(t.authority.port, "8080");
  EXPECT_EQ(t.path, "/p");
  EXPECT_EQ(t.query, "q=1");
}

TEST(RequestTarget, NonHttpSchemeStillAbsolute) {
  RequestTarget t = parse_request_target("test://h2.com/?a=1");
  EXPECT_EQ(t.form, TargetForm::kAbsolute);
  EXPECT_EQ(t.scheme, "test");
  EXPECT_EQ(t.authority.host, "h2.com");
}

TEST(RequestTarget, AbsoluteWithUserinfo) {
  RequestTarget t = parse_request_target("http://h1@h2.com/");
  EXPECT_EQ(t.form, TargetForm::kAbsolute);
  EXPECT_EQ(t.authority.userinfo, "h1");
  EXPECT_EQ(t.authority.host, "h2.com");
}

TEST(RequestTarget, AuthorityForm) {
  RequestTarget t = parse_request_target("h2.com:443");
  EXPECT_EQ(t.form, TargetForm::kAuthority);
  EXPECT_EQ(t.authority.host, "h2.com");
  EXPECT_EQ(t.authority.port, "443");
}

TEST(RequestTarget, MalformedKeepsRaw) {
  RequestTarget t = parse_request_target("://");
  EXPECT_EQ(t.form, TargetForm::kMalformed);
  EXPECT_EQ(t.raw, "://");
}

TEST(Authority, StrictParse) {
  Authority a = parse_authority("h1.com:80");
  EXPECT_TRUE(a.valid);
  EXPECT_EQ(a.host, "h1.com");
  EXPECT_EQ(a.port, "80");
}

TEST(Authority, UserinfoSplitOnLastAt) {
  Authority a = parse_authority("u@h2.com");
  EXPECT_TRUE(a.valid);
  EXPECT_EQ(a.userinfo, "u");
  EXPECT_EQ(a.host, "h2.com");
}

TEST(Authority, Ipv6Literal) {
  Authority a = parse_authority("[::1]:8080");
  EXPECT_TRUE(a.valid);
  EXPECT_EQ(a.host, "[::1]");
  EXPECT_EQ(a.port, "8080");
}

TEST(Authority, InvalidPort) {
  EXPECT_FALSE(parse_authority("h1.com:8a").valid);
}

TEST(Authority, SpaceInvalid) {
  EXPECT_FALSE(parse_authority("h1.com h2.com").valid);
}

TEST(Authority, CommaIsSubDelimAndValid) {
  // ',' is a sub-delim, so "h1.com,h2.com" is a grammatically valid
  // reg-name — exactly why comma-host ambiguity smuggles past validators.
  EXPECT_TRUE(parse_authority("h1.com,h2.com").valid);
}

struct ExtractCase {
  const char* value;
  HostExtraction strategy;
  const char* expected;
};

// Gives each case a stable test name; gtest's default byte dump of this
// struct embeds string addresses, which change from run to run.
void PrintTo(const ExtractCase& c, std::ostream* os) {
  *os << '"' << c.value << "\" via " << to_string(c.strategy);
}

class ExtractHostTest : public ::testing::TestWithParam<ExtractCase> {};

TEST_P(ExtractHostTest, Extracts) {
  const auto& p = GetParam();
  EXPECT_EQ(extract_host(p.value, p.strategy), p.expected)
      << p.value << " via " << to_string(p.strategy);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ExtractHostTest,
    ::testing::Values(
        ExtractCase{"h1.com", HostExtraction::kStrict, "h1.com"},
        ExtractCase{"h1.com:80", HostExtraction::kStrict, "h1.com"},
        ExtractCase{"u@h2.com", HostExtraction::kStrict, ""},
        ExtractCase{"h1.com h2.com", HostExtraction::kStrict, ""},
        ExtractCase{"h1.com@h2.com", HostExtraction::kBeforeDelims, "h1.com"},
        ExtractCase{"h1.com, h2.com", HostExtraction::kBeforeDelims, "h1.com"},
        ExtractCase{"h1.com/../h2", HostExtraction::kBeforeDelims, "h1.com"},
        ExtractCase{"h1.com@h2.com", HostExtraction::kAfterAt, "h2.com"},
        ExtractCase{"h2.com", HostExtraction::kAfterAt, "h2.com"},
        ExtractCase{"h1.com, h2.com", HostExtraction::kFirstListItem,
                    "h1.com"},
        ExtractCase{"h1.com, h2.com", HostExtraction::kLastListItem, "h2.com"},
        ExtractCase{"h1.com:8080", HostExtraction::kBeforeDelims, "h1.com"},
        ExtractCase{" h1.com ", HostExtraction::kWholeValue, "h1.com"},
        ExtractCase{"[::1]:80", HostExtraction::kBeforeDelims, "[::1]"}));

TEST(RegName, Validity) {
  EXPECT_TRUE(is_valid_reg_name("h1.com"));
  EXPECT_TRUE(is_valid_reg_name("127.0.0.1"));
  EXPECT_TRUE(is_valid_reg_name("[::1]"));
  EXPECT_FALSE(is_valid_reg_name(""));
  EXPECT_FALSE(is_valid_reg_name("h1 com"));
  EXPECT_FALSE(is_valid_reg_name("h1@h2"));
  EXPECT_FALSE(is_valid_reg_name("h1/h2"));
}

}  // namespace
}  // namespace hdiff::http

namespace hdiff::http {
namespace {

TEST(Authority, EmptyAndEdgeInputs) {
  EXPECT_FALSE(parse_authority("").valid);
  EXPECT_FALSE(parse_authority("[::1").valid);     // unclosed bracket
  EXPECT_FALSE(parse_authority("[::1]x").valid);   // junk after bracket
  EXPECT_FALSE(parse_authority("a:1:2").valid);    // two colons, no bracket
  EXPECT_TRUE(parse_authority("h1.com:").valid);   // empty port is legal
}

TEST(Authority, PercentEncodedRegName) {
  EXPECT_TRUE(parse_authority("h%41.com").valid);
  EXPECT_FALSE(parse_authority("h%4.com").valid);   // truncated escape
  EXPECT_FALSE(parse_authority("h%zz.com").valid);  // non-hex escape
}

TEST(RequestTarget, SchemeMustStartAlpha) {
  EXPECT_EQ(parse_request_target("1http://h/").form, TargetForm::kMalformed);
}

TEST(RequestTarget, AbsoluteWithoutPathGetsRootPath) {
  RequestTarget t = parse_request_target("http://h2.com");
  EXPECT_EQ(t.form, TargetForm::kAbsolute);
  EXPECT_EQ(t.path, "/");
}

TEST(RequestTarget, QueryOnlyAbsolute) {
  RequestTarget t = parse_request_target("http://h2.com?a=1");
  EXPECT_EQ(t.form, TargetForm::kAbsolute);
  EXPECT_EQ(t.query, "a=1");
}

}  // namespace
}  // namespace hdiff::http
