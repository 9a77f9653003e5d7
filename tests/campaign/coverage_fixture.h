// The coverage plan the campaign and serve gtests schedule against.
#pragma once

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "abnf/parser.h"
#include "analysis/coverage.h"

namespace hdiff::campaign {

/// A miniature grammar whose rule names line up with the mutation engine's
/// touched-rule names, so coverage attribution has something to bind to.
inline analysis::CoveragePlan coverage_fixture() {
  std::vector<std::string> errors;
  abnf::Grammar g = abnf::parse_rulelist(
      "HTTP-message = request-line *header-field\n"
      "request-line = \"GET \" HTTP-version\n"
      "HTTP-version = \"HTTP/1.1\" / \"HTTP/1.0\"\n"
      "header-field = field-name \":\" field-value\n"
      "field-name = 1*%x41-5A\n"
      "field-value = Transfer-Encoding / 1*%x61-7A\n"
      "Transfer-Encoding = \"chunked\" / \"compress\"\n",
      "fixture", &errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  return analysis::build_coverage_plan(g, {"HTTP-message"});
}

}  // namespace hdiff::campaign
