#include "stream/model.h"

#include <gtest/gtest.h>

#include "core/record.h"
#include "stream/seeds.h"

namespace hdiff::stream {
namespace {

RequestStream two_gets() {
  return make_stream({http::make_get("a.example", "/one"),
                      http::make_get("a.example", "/two")});
}

TEST(StreamModel, WireIsConcatenationOfMessages) {
  const RequestStream stream = two_gets();
  std::string expected;
  for (const auto& w : stream.wires()) expected += w;
  EXPECT_EQ(stream.to_wire(), expected);
  EXPECT_EQ(stream.wires().size(), 2u);
}

TEST(StreamModel, SerializeRoundTripsEverySeed) {
  for (const auto& seed : default_stream_seeds()) {
    const std::string text = serialize_stream(seed.stream);
    RequestStream parsed;
    ASSERT_TRUE(deserialize_stream(text, &parsed)) << seed.name;
    EXPECT_EQ(parsed, seed.stream) << seed.name;
    // The round-trip is byte-stable: re-serializing lands on the same
    // content-address preimage.
    EXPECT_EQ(serialize_stream(parsed), text) << seed.name;
  }
}

TEST(StreamModel, EveryProperPrefixIsRejected) {
  // The torn-file guarantee: a truncated corpus file can never load as a
  // shorter-but-valid stream — for every seed, the empty stream, and a
  // prefix re-terminated with the newline it lost.
  std::vector<std::pair<std::string, RequestStream>> streams = {
      {"empty", RequestStream{}}, {"two-gets", two_gets()}};
  for (const auto& seed : default_stream_seeds()) {
    streams.emplace_back(seed.name, seed.stream);
  }
  for (const auto& [name, stream] : streams) {
    const std::string text = serialize_stream(stream);
    RequestStream parsed;
    ASSERT_TRUE(deserialize_stream(text, &parsed)) << name;
    for (std::size_t len = 0; len < text.size(); ++len) {
      EXPECT_FALSE(deserialize_stream(text.substr(0, len), &parsed))
          << name << " prefix of length " << len << " parsed";
      if (len + 1 < text.size() && text[len] != '\n') {
        EXPECT_FALSE(deserialize_stream(text.substr(0, len) + "\n", &parsed))
            << name << " re-terminated prefix of length " << len << " parsed";
      }
    }
  }
}

TEST(StreamModel, TrailingBytesAreRejected) {
  const std::string text = serialize_stream(two_gets());
  RequestStream parsed;
  EXPECT_FALSE(deserialize_stream(text + "x", &parsed));
  EXPECT_FALSE(deserialize_stream(text + "\n", &parsed));
}

TEST(StreamModel, WrongCountHeaderIsRejected) {
  const std::string text = serialize_stream(two_gets());
  RequestStream parsed;
  std::string wrong = text;
  const std::size_t at = wrong.find(" 2\n");
  ASSERT_NE(at, std::string::npos);
  wrong.replace(at, 3, " 3\n");
  EXPECT_FALSE(deserialize_stream(wrong, &parsed));
}

TEST(StreamModel, IsStreamTextDiscriminates) {
  EXPECT_TRUE(is_stream_text(serialize_stream(two_gets())));
  // A single-request spec serialization must never be taken for a stream
  // (the shared retry queue relies on this).
  EXPECT_FALSE(is_stream_text(
      core::serialize_spec(http::make_get("a.example", "/one"))));
  EXPECT_FALSE(is_stream_text(""));
  EXPECT_FALSE(is_stream_text("GET / HTTP/1.1\r\n\r\n"));
}

}  // namespace
}  // namespace hdiff::stream
