// Structured verification outcomes.
//
// Every user-side verifier reports *why* a VO was rejected, not just that it
// was: a machine-readable code, the index of the offending entry when one
// can be named, and a human-readable detail string.
//
// Codes split into three layers, mirroring where on the untrusted path the
// check lives:
//   * input boundary — the bytes did not deserialize into a structurally
//     valid VO (wire-level errors classified by common::WireError);
//   * structural     — the VO parsed but fails soundness/completeness
//     bookkeeping (coverage, disjointness, key/dimension agreement);
//   * cryptographic  — a signature or policy check failed.
#ifndef APQA_CORE_VERIFY_RESULT_H_
#define APQA_CORE_VERIFY_RESULT_H_

#include <cstddef>
#include <string>

#include "common/serde.h"

namespace apqa::core {

enum class VerifyCode : std::uint8_t {
  kOk = 0,

  // Input boundary (deserialization).
  kMalformedVo,            // truncated or otherwise structurally invalid bytes
  kUnknownEntryTag,        // unrecognized VO entry discriminator
  kBadPolicyEncoding,      // policy text failed to parse or exceeds caps
  kPointNotOnCurve,        // group point fails the curve equation
  kPointNotInSubgroup,     // on curve but outside the prime-order subgroup
  kNonCanonicalEncoding,   // unreduced field element / bad flag byte
  kLengthOverflow,         // declared count/length exceeds the input size

  // Structural (soundness/completeness bookkeeping).
  kBadQuery,               // the query itself is invalid for the domain
  kWrongEntryCount,        // entry count contradicts the query type
  kUnexpectedEntryType,    // entry type not allowed at this position
  kKeyMismatch,            // entry key disagrees with the query/peer entry
  kDimensionMismatch,      // point/box dimensionality disagrees with domain
  kRegionOutsideRange,     // entry region not contained in the query range
  kOverlap,                // two entry regions intersect
  kCoverageGap,            // entry regions do not tile the query range
  kDuplicateBookkeeping,   // dup_num/dup_id accounting inconsistent

  // Cryptographic.
  kPolicyNotSatisfied,     // result entry policy unsatisfied by user roles
  kBadSignature,           // APP/APS signature rejected

  // Freshness. Appended after kBadSignature so existing code values are
  // stable across the epoch change.
  kStaleEpoch,             // VO epoch older than the expected epoch / bad
                           // or missing freshness attestation
};

const char* VerifyCodeName(VerifyCode code);

// [[nodiscard]] at the type level covers every Verify*Vo entry point and
// helper with one declaration: a dropped verdict is how a forged VO slips
// through, so discarding one is a compile warning (-Werror in CI), and the
// rare legitimate discard must be `(void)`-cast with a `// discard-ok:`
// justification (audited by scripts/lint.py --list-discards).
struct [[nodiscard]] VerifyResult {
  VerifyCode code = VerifyCode::kOk;
  // Index of the offending entry within its VO section; -1 when the error
  // is not attributable to a single entry.
  std::ptrdiff_t entry_index = -1;
  std::string detail;

  bool ok() const { return code == VerifyCode::kOk; }
  explicit operator bool() const { return ok(); }

  static VerifyResult Ok() { return {}; }
  static VerifyResult Fail(VerifyCode code, std::string detail,
                           std::ptrdiff_t entry_index = -1) {
    VerifyResult r;
    r.code = code;
    r.entry_index = entry_index;
    r.detail = std::move(detail);
    return r;
  }
  // Maps the wire-level error recorded by a failed ByteReader onto the
  // corresponding input-boundary code. The reader must be !ok().
  static VerifyResult FromReader(const common::ByteReader& reader);

  // "coverage-gap at entry 3: ranges covered 12 of 16 cells"
  std::string ToString() const;
};

}  // namespace apqa::core

#endif  // APQA_CORE_VERIFY_RESULT_H_
