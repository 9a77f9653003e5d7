// Stable finding fingerprints for the campaign findings database.
//
// A one-shot `hdiff run` reports raw divergences; a long-running campaign
// must recognise that round 37 just rediscovered what round 2 already
// filed.  The unit of deduplication is the *fingerprint*: detector class +
// normalized divergence vector + mutation provenance, hashed into a stable
// 16-hex-digit key.  Normalization strips everything run-dependent — case
// uuids, free-text details (which embed per-case descriptions), byte
// counts — and keeps only the structural facts: which implementations, in
// which roles, disagreed in which way.  Two mutants of the same seed+kind
// that trip the same (front, back) pairs under the same detector collapse
// to one finding; a new pair, a new detector, or a different provenance is
// a new finding.
#pragma once

#include <string>
#include <vector>

#include "core/detect.h"

namespace hdiff::campaign {

/// One deduplicatable divergence extracted from a per-case delta.
struct Signature {
  /// Detector class: "sr-violation", "HRS", "HoT", "CPDoS", "discrepancy",
  /// or one of the "stream-*" classes.
  std::string detector;
  /// Normalized divergence vector: sorted, unique, uuid-free components
  /// ("front->back" for pairs, "impl|sr_id" for violations,
  /// "status"/"host"/"body" flags for discrepancies).
  std::vector<std::string> vector;

  /// Canonical one-line rendering ("<detector>:<c1>,<c2>,...").
  std::string canonical() const;
};

/// Split a per-case delta into its per-detector signatures (empty when the
/// case produced no divergence).  Deterministic: components are sorted and
/// deduplicated, so the result is independent of map iteration accidents
/// and of the case's uuid.  A stream case's findings map directly: the
/// stream detectors already emit one finding per class with sorted,
/// uuid-free components, and their "stream-*" names never collide with the
/// single-request detectors.
std::vector<Signature> signatures_of(const core::DetectionResult& delta);

/// Stable fingerprint key: FNV-1a64 over `canonical(signature) + "#" +
/// provenance`, rendered as 16 lowercase hex digits.  Provenance is part of
/// the key by design (ISSUE: detector class + divergence vector + mutation
/// provenance): the same divergence reached via a different seed/operator
/// is a distinct finding.
std::string fingerprint(const Signature& sig, const std::string& provenance);

/// FNV-1a64 rendered as 16 lowercase hex digits (also the corpus store's
/// content address for raw request bytes).
std::string hex64(std::string_view bytes);

}  // namespace hdiff::campaign
