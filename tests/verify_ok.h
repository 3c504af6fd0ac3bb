// gtest helper for verifier verdicts: ASSERT_TRUE(VerifyOk(verdict)) passes
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

#endif  // APQA_TESTS_VERIFY_OK_H_
