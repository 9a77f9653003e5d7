// Connection-level verdict classes over stream observations.
//
// Single-request detection (core/detect.h) compares verdicts about ONE
// message.  These detectors compare *connection automata*: how a sequence of
// messages on a persistent connection was split, answered and left behind.
// ParallelExecutor runs them on every stream case (TestCase::stream), which
// is why they live in core rather than in src/stream.
// Three classes ship, each naming a divergence that no single-request
// observation can represent:
//
//   stream-boundary-desync     two back-ends both keep the connection alive
//                              yet split the same byte stream at different
//                              request boundaries — they answer different
//                              request sequences from identical input.
//                              Pairs where either side tore the connection
//                              down are excluded: accept-vs-reject is
//                              visible in single-request mode already.
//
//   stream-queue-poison        on a proxy->backend connection the response
//                              queue no longer matches the forwarded
//                              requests: the back-end answered more requests
//                              than the proxy forwarded, or ended with
//                              stranded bytes that would prefix a victim's
//                              next request.  Stranded bytes are classified
//                              with net::classify_queue_shift — the single
//                              response-queue-poisoning oracle shared with
//                              net::demonstrate_smuggling — into "hijack"
//                              (victim answered for the attacker's target)
//                              vs "desync" (connection poisoned into errors).
//
//   stream-leftover-divergence two live back-end connections end the stream
//                              holding different buffered bytes — they
//                              disagree about the *next* request's prefix,
//                              the stateful primitive behind request
//                              smuggling chains.
//
// Results are deterministic: components are sorted and deduplicated, pair
// names are ordered lexicographically, and details carry no uuids — so a
// finding maps to a stable campaign fingerprint.
#pragma once

#include <string>
#include <vector>

#include "core/detect.h"
#include "net/chain.h"
#include "net/stream.h"
#include "obs/obs.h"

namespace hdiff::core {

struct StreamDetectionResult {
  std::vector<StreamFinding> findings;

  bool any() const noexcept { return !findings.empty(); }
};

/// Detector names (also the finding fingerprints' detector class).
inline constexpr std::string_view kBoundaryDesync = "stream-boundary-desync";
inline constexpr std::string_view kQueuePoison = "stream-queue-poison";
inline constexpr std::string_view kLeftoverDivergence =
    "stream-leftover-divergence";

/// Evaluates stream observations against all three connection-level models.
/// Holds a non-owning reference to the chain to resolve back-end models by
/// name for queue-shift classification.  Stateless and const: safe to share
/// across concurrent evaluations.
class StreamDetector {
 public:
  explicit StreamDetector(const net::Chain& chain) : chain_(&chain) {}

  /// Evaluate one observed stream.  `track`, when provided, bumps the
  /// per-class hdiff_stream_*_total counters; results are identical with or
  /// without it.  Faulted observations yield an empty result.
  StreamDetectionResult evaluate(const net::StreamObservation& obs,
                                 const obs::StreamObs* track = nullptr) const;

  /// Bump the per-class hdiff_stream_*_total counters for `result` (what
  /// evaluate does with a `track`); a memoized result is counted again on
  /// every reuse, so the counters read the same with the memo on or off.
  static void count(const StreamDetectionResult& result,
                    const obs::StreamObs* track);

 private:
  const impls::HttpImplementation* backend_named(std::string_view name) const;

  const net::Chain* chain_;
};

}  // namespace hdiff::core
