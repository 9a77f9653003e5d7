#include "text/sentiment.h"

#include <gtest/gtest.h>

namespace hdiff::text {
namespace {

TEST(Sentiment, Rfc2119KeywordsScoreHigh) {
  SentimentClassifier c;
  EXPECT_GE(c.score("A server MUST respond with a 400 status code.").strength,
            0.9);
  EXPECT_GE(c.score("The client SHALL close the connection.").strength, 0.9);
  EXPECT_GE(c.score("A proxy SHOULD forward the message.").strength, 0.7);
}

TEST(Sentiment, CapitalizedKeywordScoresHigherThanLowercase) {
  SentimentClassifier c;
  double caps = c.score("The server MUST reject it.").strength;
  double lower = c.score("The server must reject it.").strength;
  EXPECT_GT(caps, lower);
}

TEST(Sentiment, InformalObligationsDetected) {
  // These are the paper's examples of SRs a keyword filter misses.
  SentimentClassifier c;
  EXPECT_TRUE(c.is_requirement("A chunked message is not allowed here."));
  EXPECT_TRUE(c.is_requirement("The response cannot contain a message body."));
  EXPECT_TRUE(
      c.is_requirement("Such a message ought to be handled as an error."));
}

TEST(Sentiment, KeywordFilterMissesInformalForms) {
  EXPECT_FALSE(keyword_filter_matches("A chunked message is not allowed."));
  EXPECT_FALSE(keyword_filter_matches("It cannot contain a message body."));
  EXPECT_TRUE(keyword_filter_matches("A server MUST reject it."));
}

TEST(Sentiment, KeywordFilterWholeWordOnly) {
  EXPECT_FALSE(keyword_filter_matches("The MAYOR approved the proposal."));
  EXPECT_TRUE(keyword_filter_matches("The server MAY respond with 417."));
}

TEST(Sentiment, NeutralProseScoresLow) {
  SentimentClassifier c;
  EXPECT_LT(c.score("The Internet has many middleboxes deployed today.")
                .strength,
            c.threshold());
  EXPECT_FALSE(c.is_requirement(
      "HTTP is a text-based protocol for fetching resources."));
}

TEST(Sentiment, PolarityDistinguishesProhibition) {
  SentimentClassifier c;
  EXPECT_EQ(c.score("A sender MUST NOT generate a bare CR.").polarity,
            SentimentPolarity::kProhibition);
  EXPECT_EQ(c.score("A server MUST accept absolute-form requests.").polarity,
            SentimentPolarity::kObligation);
  EXPECT_EQ(c.score("Middleboxes are widely deployed.").polarity,
            SentimentPolarity::kNeutral);
}

TEST(Sentiment, CuesAreReported) {
  SentimentClassifier c;
  auto r = c.score("A server MUST reject and MUST NOT forward it.");
  EXPECT_GE(r.cues.size(), 2u);
}

TEST(Sentiment, MayScoresAboveNeutralBelowMust) {
  SentimentClassifier c;
  double may = c.score("A proxy MAY discard the field.").strength;
  double must = c.score("A proxy MUST discard the field.").strength;
  EXPECT_GT(may, 0.0);
  EXPECT_GT(must, may);
}

struct SrExample {
  const char* sentence;
  bool is_sr;
};

// Gives each case a stable test name; gtest's default byte dump of this
// struct embeds the sentence's address, which changes from run to run.
void PrintTo(const SrExample& e, std::ostream* os) {
  *os << '"' << e.sentence << '"';
}

class SentimentCorpusTest : public ::testing::TestWithParam<SrExample> {};

TEST_P(SentimentCorpusTest, ClassifiesRfcStyleSentences) {
  SentimentClassifier c;
  EXPECT_EQ(c.is_requirement(GetParam().sentence), GetParam().is_sr)
      << GetParam().sentence;
}

INSTANTIATE_TEST_SUITE_P(
    RfcSentences, SentimentCorpusTest,
    ::testing::Values(
        SrExample{"A server MUST respond with a 400 (Bad Request) status "
                  "code to any HTTP/1.1 request message that lacks a Host "
                  "header field.",
                  true},
        SrExample{"A sender MUST NOT send a Content-Length header field in "
                  "any message that contains a Transfer-Encoding header "
                  "field.",
                  true},
        SrExample{"The identity value is obsolete and ought to be treated "
                  "as an error by recipients.",
                  true},
        SrExample{"Such whitespace is not permitted between the field name "
                  "and the colon.",
                  true},
        SrExample{"This specification targets conformance criteria "
                  "according to the role of a participant.",
                  false},
        SrExample{"The method token is the primary source of request "
                  "semantics.",
                  false}));

}  // namespace
}  // namespace hdiff::text
