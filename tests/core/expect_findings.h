// Shared by the core gtests: two detection results are the same findings,
// field by field, so a mismatch names the first differing entry.
#pragma once

#include <cstddef>

#include <gtest/gtest.h>

#include "core/detect.h"

namespace hdiff::core {

inline void expect_same_findings(const DetectionResult& a,
                                 const DetectionResult& b) {
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].impl, b.violations[i].impl) << "at " << i;
    EXPECT_EQ(a.violations[i].sr_id, b.violations[i].sr_id) << "at " << i;
    EXPECT_EQ(a.violations[i].uuid, b.violations[i].uuid) << "at " << i;
    EXPECT_EQ(a.violations[i].category, b.violations[i].category) << "at " << i;
    EXPECT_EQ(a.violations[i].detail, b.violations[i].detail) << "at " << i;
  }
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].front, b.pairs[i].front) << "at " << i;
    EXPECT_EQ(a.pairs[i].back, b.pairs[i].back) << "at " << i;
    EXPECT_EQ(a.pairs[i].attack, b.pairs[i].attack) << "at " << i;
    EXPECT_EQ(a.pairs[i].uuid, b.pairs[i].uuid) << "at " << i;
    EXPECT_EQ(a.pairs[i].detail, b.pairs[i].detail) << "at " << i;
  }
  EXPECT_EQ(a.discrepancies.status_disagreements,
            b.discrepancies.status_disagreements);
  EXPECT_EQ(a.discrepancies.host_disagreements,
            b.discrepancies.host_disagreements);
  EXPECT_EQ(a.discrepancies.body_disagreements,
            b.discrepancies.body_disagreements);
  EXPECT_EQ(a.discrepancies.inputs_with_discrepancy,
            b.discrepancies.inputs_with_discrepancy);
  EXPECT_EQ(a.vector_hits, b.vector_hits);
}

}  // namespace hdiff::core
