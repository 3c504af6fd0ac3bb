// lint-fixture-expect: R12
// lint-fixture-path: src/core/parallel_verify.h
// Seeded violation: the shared verify driver runs the structural walk and
// the signature batch before the stamp checks, so every verifier routed
// through it would check a replayed VO's signatures first.
namespace apqa::core {

template <typename Walk>
VerifyResult RunVerify(const VerifyContext& ctx,
                       const std::vector<const EpochStamp*>& stamps,
                       Walk&& walk) {
  const Policy attestation_policy = AttestationPolicy();
  SigBatch batch(ctx.mvk);
  for (const EpochStamp* stamp : stamps) {
    batch.Add(EpochAttestationMessage(stamp->epoch, stamp->ads_digest),
              &attestation_policy, &stamp->attestation, AttestationRejected());
  }
  VerifyResult struct_fail = walk(batch);
  std::ptrdiff_t bad = batch.FirstFailure(ctx.pool);
  for (const EpochStamp* stamp : stamps) {
    VerifyResult f = CheckStampFields(*stamp, ctx.expected_epoch);
    if (!f.ok()) return f;
  }
  batch.RunOutputs(bad);
  return bad >= 0 ? batch.failure(bad) : struct_fail;
}

}  // namespace apqa::core
