#include "core/equality.h"

#include "core/parallel_verify.h"
#include "core/range_query.h"

namespace apqa::core {

Vo BuildEqualityVo(const GridTree& tree, const VerifyKey& mvk, const Point& key,
                   const RoleSet& user_roles, const RoleSet& universe,
                   Rng* rng) {
  Vo vo;
  vo.stamp = tree.stamp();
  const GridTree::Node& leaf = tree.GetNode(tree.LeafAt(key));
  if (leaf.policy.Evaluate(user_roles)) {
    vo.entries.push_back(ResultEntry{leaf.record.key, leaf.record.value,
                                     leaf.record.policy, leaf.sig});
    return vo;
  }
  vo.entries.push_back(
      RelaxNode(mvk, leaf, SuperPolicyRoles(universe, user_roles), rng));
  return vo;
}

VerifyResult VerifyEqualityVo(const VerifyContext& ctx, const Point& key,
                              const Vo& vo, Record* result, bool* accessible) {
  const Policy super_policy = ctx.SuperPolicy();
  return RunVerify(
      ctx, {&vo.stamp},
      [&](SigBatch& batch) -> VerifyResult {
        if (!ctx.domain.ContainsPoint(key)) {
          return VerifyResult::Fail(VerifyCode::kBadQuery,
                                    "query key outside domain");
        }
        if (vo.entries.size() != 1) {
          return VerifyResult::Fail(
              VerifyCode::kWrongEntryCount,
              "equality VO must contain exactly one entry");
        }
        const VoEntry& entry = vo.entries[0];
        if (const auto* res = std::get_if<ResultEntry>(&entry)) {
          if (res->key != key) {
            return VerifyResult::Fail(VerifyCode::kKeyMismatch,
                                      "result key does not match query", 0);
          }
          if (!res->policy.Evaluate(ctx.roles)) {
            return VerifyResult::Fail(
                VerifyCode::kPolicyNotSatisfied,
                "result policy not satisfied by user roles", 0);
          }
          batch.Add(RecordMessage(res->key, res->value), &res->policy,
                    &res->app_sig,
                    VerifyResult::Fail(VerifyCode::kBadSignature,
                                       "APP signature verification failed",
                                       0));
          batch.OnVerified([res, result, accessible] {
            if (accessible != nullptr) *accessible = true;
            if (result != nullptr) {
              *result = Record{res->key, res->value, res->policy};
            }
          });
          return VerifyResult::Ok();
        }
        if (const auto* rec = std::get_if<InaccessibleRecordEntry>(&entry)) {
          if (rec->key != key) {
            return VerifyResult::Fail(
                VerifyCode::kKeyMismatch,
                "inaccessible entry key does not match query", 0);
          }
          batch.Add(RecordMessageFromHash(rec->key, rec->value_hash),
                    &super_policy, &rec->aps_sig,
                    VerifyResult::Fail(VerifyCode::kBadSignature,
                                       "APS signature verification failed",
                                       0));
          batch.OnVerified([accessible] {
            if (accessible != nullptr) *accessible = false;
          });
          return VerifyResult::Ok();
        }
        return VerifyResult::Fail(VerifyCode::kUnexpectedEntryType,
                                  "unexpected entry type in equality VO", 0);
      });
}

}  // namespace apqa::core
