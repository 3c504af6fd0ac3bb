// lint-fixture-expect: R12
// lint-fixture-path: src/core/equality.cc
// Seeded violation: signature work runs before the entry hands the VO to
// the RunVerify driver, so a replayed VO gets expensive verification (and a
// timing side channel on its contents) before the freshness gate rejects
// it as stale.
namespace apqa::core {

VerifyResult VerifyEqualityVo(const VerifyContext& ctx, const Point& key,
                              const Vo& vo, Record* result, bool* accessible) {
  SigBatch early(ctx.mvk);
  for (const auto& entry : vo.entries) {
    early.Add(EntryMessage(entry), &entry.policy, &entry.sig, {});
  }
  if (early.FirstFailure(ctx.pool) >= 0) {
    return VerifyResult::Fail(VerifyCode::kBadSignature, "bad", 0);
  }
  return RunVerify(
      ctx, {&vo.stamp},
      [&](SigBatch& batch) -> VerifyResult { return VerifyResult::Ok(); });
}

}  // namespace apqa::core
