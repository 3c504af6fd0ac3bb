// lint-fixture-expect: R11
// lint-fixture-path: src/core/maintenance.cc
// Seeded violation: a (void) cast silences the [[nodiscard]] diagnostic on a
// verification verdict without a justification comment.
namespace apqa::core {

void RefreshReplica(const VerifyContext& ctx, const Vo& vo, const Query& q) {
  (void)VerifyRangeVo(ctx, q.range, vo, nullptr);
}

}  // namespace apqa::core
