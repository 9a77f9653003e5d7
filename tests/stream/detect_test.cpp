#include "core/stream_detect.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "impls/products.h"
#include "stream/seeds.h"

namespace hdiff::stream {
namespace {

using core::kBoundaryDesync;
using core::kLeftoverDivergence;
using core::kQueuePoison;
using core::StreamDetectionResult;
using core::StreamDetector;
using core::StreamFinding;

const RequestStream& seed_named(const std::string& name) {
  for (const auto& s : default_stream_seeds()) {
    if (s.name == name) return s.stream;
  }
  ADD_FAILURE() << "no seed named " << name;
  static const RequestStream empty;
  return empty;
}

bool has_detector(const StreamDetectionResult& result,
                  std::string_view detector) {
  return std::any_of(result.findings.begin(), result.findings.end(),
                     [&](const StreamFinding& f) {
                       return f.detector == detector;
                     });
}

TEST(StreamDetect, FatGetTripsBoundaryDesync) {
  auto fleet = impls::make_all_implementations();
  net::Chain chain = net::Chain::from_fleet(fleet);
  StreamDetector detector(chain);
  net::StreamObservation obs =
      chain.observe_stream("d1", seed_named("fat-get").wires());
  ASSERT_FALSE(obs.faulted());
  const StreamDetectionResult result = detector.evaluate(obs);
  EXPECT_TRUE(has_detector(result, kBoundaryDesync));
  // Both sides accept, so no single-request detector could have seen this:
  // the pair must name an ignore-body parser.
  for (const auto& f : result.findings) {
    if (f.detector != kBoundaryDesync) continue;
    EXPECT_FALSE(f.components.empty());
    const bool names_weblogic = std::any_of(
        f.components.begin(), f.components.end(), [](const std::string& c) {
          return c.find("weblogic") != std::string::npos;
        });
    EXPECT_TRUE(names_weblogic) << f.detail;
  }
}

TEST(StreamDetect, FindingsAreSortedUniqueAndDeterministic) {
  auto fleet = impls::make_all_implementations();
  net::Chain chain = net::Chain::from_fleet(fleet);
  StreamDetector detector(chain);
  net::StreamObservation obs =
      chain.observe_stream("d2", seed_named("fat-get").wires());
  ASSERT_FALSE(obs.faulted());
  const StreamDetectionResult a = detector.evaluate(obs);
  const StreamDetectionResult b = detector.evaluate(obs);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].detector, b.findings[i].detector);
    EXPECT_EQ(a.findings[i].components, b.findings[i].components);
    EXPECT_TRUE(std::is_sorted(a.findings[i].components.begin(),
                               a.findings[i].components.end()));
    EXPECT_EQ(std::adjacent_find(a.findings[i].components.begin(),
                                 a.findings[i].components.end()),
              a.findings[i].components.end())
        << "duplicate component in " << a.findings[i].detector;
  }
}

TEST(StreamDetect, ComponentsCarryNoUuid) {
  auto fleet = impls::make_all_implementations();
  net::Chain chain = net::Chain::from_fleet(fleet);
  StreamDetector detector(chain);
  // Same stream under two uuids must fingerprint identically.
  net::StreamObservation first =
      chain.observe_stream("uuid-one", seed_named("fat-get").wires());
  net::StreamObservation second =
      chain.observe_stream("uuid-two", seed_named("fat-get").wires());
  const StreamDetectionResult a = detector.evaluate(first);
  const StreamDetectionResult b = detector.evaluate(second);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].components, b.findings[i].components);
  }
}

TEST(StreamDetect, FaultedObservationYieldsNoFindings) {
  auto fleet = impls::make_all_implementations();
  net::Chain chain = net::Chain::from_fleet(fleet);
  StreamDetector detector(chain);
  net::StreamObservation obs;
  obs.fault = net::ChainError::kReset;
  EXPECT_FALSE(detector.evaluate(obs).any());
}

TEST(StreamDetect, PlainPipelineIsQuiet) {
  // Two identical plain GETs: every parser splits them the same way, so no
  // stream detector may fire (false-positive guard).
  auto fleet = impls::make_all_implementations();
  net::Chain chain = net::Chain::from_fleet(fleet);
  StreamDetector detector(chain);
  const RequestStream plain =
      make_stream({http::make_get("a.example", "/one"),
                   http::make_get("a.example", "/two")});
  net::StreamObservation obs = chain.observe_stream("d3", plain.wires());
  ASSERT_FALSE(obs.faulted());
  const StreamDetectionResult result = detector.evaluate(obs);
  for (const auto& f : result.findings) {
    ADD_FAILURE() << "unexpected finding " << f.detector << ": " << f.detail;
  }
}

}  // namespace
}  // namespace hdiff::stream
