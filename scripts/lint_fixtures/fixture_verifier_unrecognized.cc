// lint-fixture-expect: R12
// lint-fixture-path: src/core/kd_tree.cc
// Seeded violation: a verifier entry is declared, but its definition is
// spelled so the R12 signature pattern no longer sees the body (a trailing
// return type here). Without the non-vacuity guard R12 would report
// nothing while the hand-rolled body skips the freshness gate.
namespace apqa::core {

VerifyResult VerifyKdRangeVo(const VerifyContext& ctx, const Box& range,
                             const KdVo& vo, std::vector<Record>* results);

auto VerifyKdRangeVo(const VerifyContext& ctx, const Box& range,
                     const KdVo& vo, std::vector<Record>* results)
    -> VerifyResult {
  SigBatch batch(ctx.mvk);
  return VerifyResult::Ok();
}

}  // namespace apqa::core
