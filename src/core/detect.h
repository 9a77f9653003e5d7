// Difference analysis and detection models (paper §III-D, §IV-A).
//
// Detection rules are predicates over the HMetrics collected at the three
// chain stages (the paper's manual input #3).  Three models ship:
//
//   HRS   — the front-end forwarded bytes it framed as exactly one request,
//           but a back-end parsing those bytes leaves a non-empty remainder
//           (smuggled next request) or blocks awaiting more bytes (desync).
//   HoT   — the front-end forwarded the request while routing on a host
//           different from the one the back-end derives from the same bytes.
//   CPDoS — the front-end forwarded-and-would-cache a request that some
//           back-end answers with an error while another back-end serves it,
//           poisoning the cache key with an error page.
//
// Additionally, every SR-derived test case carries an assertion; an
// implementation whose HMetrics violates the assertion is flagged as
// deviating from the specification (single-implementation testing, which
// plain differential testing cannot do).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/testcase.h"
#include "net/chain.h"

namespace hdiff::core {

/// One specification violation by one implementation.
struct SrViolation {
  std::string impl;
  std::string sr_id;
  std::string uuid;
  AttackClass category = AttackClass::kGeneric;
  std::string detail;
};

/// Which side of a pair finding is at fault (drives Table I attribution).
enum class Blame {
  kAuto,   ///< decide via the strict reference parser (request-path HRS)
  kFront,  ///< the front-end's handling is the defect
  kBack,   ///< the back-end's handling is the defect
};

/// One affected (front-end, back-end) pair.
struct PairFinding {
  std::string front;
  std::string back;
  AttackClass attack = AttackClass::kGeneric;
  std::string uuid;
  std::string detail;
  Blame blame = Blame::kAuto;
};

/// Counters over plain behavioural discrepancies (inputs on which direct
/// back-end verdicts disagree), feeding the ">100 violations and
/// discrepancies" statistic of §IV-B.
struct DiscrepancyStats {
  std::size_t status_disagreements = 0;
  std::size_t host_disagreements = 0;
  std::size_t body_disagreements = 0;
  std::size_t inputs_with_discrepancy = 0;
};

/// One connection-level divergence from a stream case (stream_detect.h),
/// shaped for campaign fingerprinting: detector class + normalized
/// component vector (+ free-text detail that is NOT part of the
/// fingerprint).
struct StreamFinding {
  std::string detector;
  std::vector<std::string> components;  ///< sorted, unique, uuid-free
  std::string detail;
};

struct DetectionResult {
  std::vector<SrViolation> violations;
  std::vector<PairFinding> pairs;
  DiscrepancyStats discrepancies;
  /// Table II accumulation: vector label -> attack classes observed.  Built
  /// during evaluation (pair deduplication would otherwise shadow labels of
  /// later test cases hitting an already-known pair).
  std::map<std::string, std::set<std::string>> vector_hits;
  /// Stream cases only: the StreamDetector's connection-level findings
  /// (a stream case never fills the single-request fields above).
  std::vector<StreamFinding> streams;
};

class DetectionEngine {
 public:
  /// Evaluate one observed test case under all detection models.
  DetectionResult evaluate(const TestCase& tc,
                           const net::ChainObservation& obs) const;

  /// Merge `delta` into `total` (pairs deduplicated by front/back/attack,
  /// violations by impl/sr, stream findings by detector/components,
  /// counters summed).
  static void accumulate(DetectionResult& total, const DetectionResult& delta);
};

/// Aggregated findings across a whole run, shaped like the paper's results.
struct VulnMatrix {
  /// Table I: per implementation, which attack classes it is vulnerable to.
  struct Row {
    bool hrs = false;
    bool hot = false;
    bool cpdos = false;
  };
  std::map<std::string, Row> by_impl;

  /// Figure 7: affected pairs per attack class ("front->back").
  std::set<std::string> hrs_pairs;
  std::set<std::string> hot_pairs;
  std::set<std::string> cpdos_pairs;

  /// Table II: vector label -> attack classes observed for it.
  std::map<std::string, std::set<std::string>> vector_catalogue;
};

/// Build the vulnerability matrix from accumulated findings.
/// Column semantics follow the paper: HRS marks implementations with
/// framing-related specification violations ("do not fully follow HTTP
/// specifications, which could be potentially exploited"); HoT marks
/// members of affected pairs; CPDoS marks front-ends of affected pairs.
VulnMatrix build_matrix(const DetectionResult& total,
                        const std::vector<TestCase>& cases);

}  // namespace hdiff::core
