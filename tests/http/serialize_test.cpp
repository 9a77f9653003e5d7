#include "http/serialize.h"

#include <gtest/gtest.h>

#include "http/lexer.h"

namespace hdiff::http {
namespace {

TEST(RequestSpec, CanonicalWire) {
  RequestSpec r = make_get("h1.com", "/x");
  EXPECT_EQ(r.to_wire(), "GET /x HTTP/1.1\r\nHost: h1.com\r\n\r\n");
}

TEST(RequestSpec, PostCarriesContentLength) {
  RequestSpec r = make_post("h1.com", "/", "abc");
  EXPECT_EQ(r.to_wire(),
            "POST / HTTP/1.1\r\nHost: h1.com\r\nContent-Length: 3\r\n\r\nabc");
}

TEST(RequestSpec, ChunkedPostRoundTripsThroughLexer) {
  RequestSpec r = make_chunked_post("h1.com", "/", "abc");
  RawRequest lexed = lex_request(r.to_wire());
  EXPECT_EQ(lexed.anomalies, 0u);
  EXPECT_EQ(lexed.find_first("transfer-encoding")->value, "chunked");
  EXPECT_EQ(lexed.after_headers, "3\r\nabc\r\n0\r\n\r\n");
}

TEST(RequestSpec, ByteLevelControl) {
  RequestSpec r;
  r.method = "GET";
  r.target = '/';
  r.version = "hTTP/1.1";
  r.sep2 = '\t';
  r.add(HeaderSpec{"Host ", "h1.com", ":", "\n"});
  EXPECT_EQ(r.to_wire(), "GET /\thTTP/1.1\r\nHost :h1.com\n\r\n");
}

TEST(RequestSpec, VersionlessLine) {
  RequestSpec r;
  r.version.clear();
  EXPECT_EQ(r.to_wire(), "GET /\r\n\r\n");
}

TEST(RequestSpec, SetReplacesFirstCaseInsensitive) {
  RequestSpec r = make_get("h1.com");
  r.set("hOsT", "h2.com");
  ASSERT_EQ(r.headers.size(), 1u);
  EXPECT_EQ(r.headers[0].value, "h2.com");
  r.set("New-Header", "v");
  EXPECT_EQ(r.headers.size(), 2u);
}

TEST(RequestSpec, RemoveDropsAllMatches) {
  RequestSpec r = make_get("h1.com");
  r.add("Host", "h2.com");
  r.remove("HOST");
  EXPECT_TRUE(r.headers.empty());
}

TEST(RequestSpec, GetFindsValue) {
  RequestSpec r = make_post("h1.com", "/", "xy");
  EXPECT_EQ(r.get("content-length").value_or(""), "2");
  EXPECT_FALSE(r.get("absent"));
}

}  // namespace
}  // namespace hdiff::http
