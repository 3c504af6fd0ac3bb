// Authenticated equality queries (paper §5.1, Algorithm 1).
//
// The ADS for equality queries is the leaf layer of the AP²G-tree: every
// possible key has a (real or pseudo) record with an APP signature, so every
// equality query has exactly one matching entry — accessible or not — and
// the two cases are the only distinguishable outcomes.
#ifndef APQA_CORE_EQUALITY_H_
#define APQA_CORE_EQUALITY_H_

#include "core/grid_tree.h"
#include "core/verify_result.h"
#include "core/vo.h"

namespace apqa::core {

// SP side: VO for an equality query on `key` by a user holding `user_roles`.
// Returns a single-entry VO: ResultEntry when accessible, otherwise an
// InaccessibleRecordEntry carrying only hash(v) and the APS signature.
Vo BuildEqualityVo(const GridTree& tree, const VerifyKey& mvk, const Point& key,
                   const RoleSet& user_roles, const RoleSet& universe,
                   Rng* rng);

// User side: verifies the VO against the queried key. On success, when the
// record is accessible, `result` (if not null) receives it; `accessible`
// (if not null) reports which case the VO proved.
VerifyResult VerifyEqualityVo(const VerifyContext& ctx, const Point& key,
                              const Vo& vo, Record* result, bool* accessible);

// Declassification gate for wire-decoded VOs: verification is the trust
// boundary, so the tainted value feeds the checked path directly.
inline VerifyResult VerifyEqualityVo(const VerifyContext& ctx,
                                     const Point& key,
                                     const common::Untrusted<Vo>& vo,
                                     Record* result, bool* accessible) {
  // untrusted-ok: Verify*Vo is the declassification gate for SP bytes.
  return VerifyEqualityVo(ctx, key, vo.Unvalidated(), result, accessible);
}

}  // namespace apqa::core

#endif  // APQA_CORE_EQUALITY_H_
