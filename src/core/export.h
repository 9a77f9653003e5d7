// Findings export (paper §V "Cost and Benefit": "we can reuse the test
// cases for discovering vulnerabilities in more implementations. And the
// tool can be run periodically").
//
// Serializes a pipeline run — statistics, the vulnerability matrix, pairs,
// violations, and optionally the full test corpus — to JSON, so a CI job can
// diff runs across software updates, and a saved corpus can be replayed.
#pragma once

#include <string>
#include <vector>

#include "core/hdiff.h"
#include "core/record.h"  // hex_encode / hex_decode for the corpus round-trip

namespace hdiff::core {

struct ExportOptions {
  bool include_test_cases = false;  ///< embed the executed corpus (large)
  bool include_pair_details = true;
  /// Pre-rendered JSON object for the "lint" block (analysis::lint_json).
  /// Rendered by the caller because core does not depend on hdiff_analysis;
  /// empty = omit the block.
  std::string lint_json;
};

/// Serialize a pipeline result to JSON.
std::string export_json(const PipelineResult& result,
                        ExportOptions options = {});

/// Serialize just a test-case corpus (wire bytes base-16 encoded so payloads
/// with NUL/CTL bytes survive any transport).
std::string export_test_cases_json(const std::vector<TestCase>& cases);

/// Parse a corpus produced by export_test_cases_json back into test cases.
/// Returns false on malformed input (partial results are discarded).
bool import_test_cases_json(std::string_view json,
                            std::vector<TestCase>* out);

}  // namespace hdiff::core
