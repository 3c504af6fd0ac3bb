// gtest helpers for verifier verdicts: ASSERT_TRUE(VerifyOk(verdict)) passes
// iff the verdict is Ok, and prints it (code, entry, detail) otherwise.
#ifndef APQA_TESTS_VERIFY_OK_H_
#define APQA_TESTS_VERIFY_OK_H_

#include <gtest/gtest.h>

#include "core/verify_result.h"

inline ::testing::AssertionResult VerifyOk(
    const apqa::core::VerifyResult& verdict) {
  if (verdict.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << verdict.ToString();
}

// True iff two verdicts are byte-identical: same code, entry index and
// detail. The batched and per-signature verify paths must agree this way.
inline bool SameResult(const apqa::core::VerifyResult& a,
                       const apqa::core::VerifyResult& b) {
  return a.code == b.code && a.entry_index == b.entry_index &&
         a.detail == b.detail;
}

#endif  // APQA_TESTS_VERIFY_OK_H_
