// Test cases and the assertions attached to SR-derived ones.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "text/entailment.h"

namespace hdiff::core {

/// Which generator produced a test case.
enum class TestOrigin {
  kSrTranslator,   ///< derived from a converted SR, carries an assertion
  kAbnfGenerator,  ///< derived from the ABNF grammar (valid seed)
  kMutation,       ///< a mutated valid seed
  kManual,         ///< hand-written probe
};

std::string_view to_string(TestOrigin o) noexcept;

/// Attack class a test case or finding belongs to (paper §II-C).
enum class AttackClass {
  kHrs,     ///< HTTP Request Smuggling
  kHot,     ///< Host of Troubles
  kCpdos,   ///< Cache-Poisoned Denial of Service
  kGeneric, ///< undirected probe; class decided by the detection models
};

std::string_view to_string(AttackClass a) noexcept;

/// Expected behaviour of a conforming implementation, derived from a
/// role-action SR.  Violating the assertion marks the implementation as
/// deviating from the specification (paper: HDiff "can test a single
/// implementation by checking whether HMetrics matches the assertion").
struct Assertion {
  text::Role role = text::Role::kServer;  ///< constrained role
  std::optional<int> expect_status;       ///< exact status required
  bool expect_reject = false;             ///< any 4xx/5xx acceptable
  bool expect_not_forward = false;        ///< proxies must not forward as-is
  std::string sr_id;                      ///< source SR identifier
};

struct TestCase {
  std::string uuid;
  std::string raw;           ///< wire bytes sent by the client
  std::string description;   ///< human-readable synopsis
  std::string vector_label;  ///< Table-II row this case probes (may be empty)
  TestOrigin origin = TestOrigin::kManual;
  AttackClass category = AttackClass::kGeneric;
  std::optional<Assertion> assertion;
  /// Stream case variant: the per-message wire bytes of a request stream
  /// fired down one persistent connection (Chain::observe_stream, judged by
  /// core::StreamDetector).  Empty for a single-request case.  For a stream
  /// case `raw` is the messages' concatenation, which sharding, retry
  /// backoff and the retry queue key on.
  std::vector<std::string> stream;

  bool is_stream() const noexcept { return !stream.empty(); }
};

}  // namespace hdiff::core
