#ifndef EXPLAINTI_TESTS_EXPLANATION_MATCHERS_H_
#define EXPLAINTI_TESTS_EXPLANATION_MATCHERS_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/explanation.h"

namespace explainti::testing {

/// Bitwise float-vector equality: the serving paths must not change
/// numerics at all, so approximate comparisons would mask real drift.
inline void ExpectBitEqual(const std::vector<float>& a,
                           const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << what;
  }
}

inline uint32_t Bits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Field-by-field comparison of two explanations: the prediction, every
/// LE window (both spans of a pair, relevance bits, text), every GE
/// retrieval and SE neighbour (id, score bits, bridge, text, labels) and
/// the degradation note.
inline void ExpectExplanationsBitEqual(const core::Explanation& want,
                                       const core::Explanation& got) {
  EXPECT_EQ(want.predicted_labels, got.predicted_labels);
  ExpectBitEqual(want.probabilities, got.probabilities, "probabilities");

  ASSERT_EQ(want.local.size(), got.local.size());
  for (size_t i = 0; i < want.local.size(); ++i) {
    const core::LocalExplanation& w = want.local[i];
    const core::LocalExplanation& g = got.local[i];
    EXPECT_EQ(w.window_start, g.window_start) << "LE window " << i;
    EXPECT_EQ(w.window_end, g.window_end) << "LE window " << i;
    EXPECT_EQ(w.window_start2, g.window_start2) << "LE window " << i;
    EXPECT_EQ(w.window_end2, g.window_end2) << "LE window " << i;
    EXPECT_EQ(Bits(w.relevance), Bits(g.relevance)) << "LE relevance " << i;
    EXPECT_EQ(w.text, g.text) << "LE text " << i;
  }

  ASSERT_EQ(want.global.size(), got.global.size());
  for (size_t i = 0; i < want.global.size(); ++i) {
    const core::GlobalExplanation& w = want.global[i];
    const core::GlobalExplanation& g = got.global[i];
    EXPECT_EQ(w.train_sample_id, g.train_sample_id) << "GE hit " << i;
    EXPECT_EQ(Bits(w.influence), Bits(g.influence)) << "GE influence " << i;
    EXPECT_EQ(w.text, g.text) << "GE text " << i;
    EXPECT_EQ(w.labels, g.labels) << "GE labels " << i;
  }

  ASSERT_EQ(want.structural.size(), got.structural.size());
  for (size_t i = 0; i < want.structural.size(); ++i) {
    const core::StructuralExplanation& w = want.structural[i];
    const core::StructuralExplanation& g = got.structural[i];
    EXPECT_EQ(w.neighbor_sample_id, g.neighbor_sample_id) << "SE " << i;
    EXPECT_EQ(Bits(w.attention), Bits(g.attention)) << "SE attention " << i;
    EXPECT_EQ(w.via, g.via) << "SE bridge " << i;
    EXPECT_EQ(w.text, g.text) << "SE text " << i;
    EXPECT_EQ(w.labels, g.labels) << "SE labels " << i;
  }

  EXPECT_EQ(want.degradation_note, got.degradation_note);
}

}  // namespace explainti::testing

#endif  // EXPLAINTI_TESTS_EXPLANATION_MATCHERS_H_
