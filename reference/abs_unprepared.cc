#include "reference/abs_unprepared.h"

namespace apqa::abs {

bool VerifyUnprepared(const VerifyKey& mvk,
                      const std::vector<std::uint8_t>& msg,
                      const Policy& predicate, const Signature& sig,
                      bool exact) {
  policy::Msp msp = policy::BuildMsp(predicate);
  std::size_t rows = msp.Rows(), cols = msp.Cols();
  if (sig.s.size() != rows || sig.p.size() != cols) return false;
  if (sig.y.IsInfinity()) return false;

  Fr mu = internal::MessageScalar(sig.tau, msg, sig.epoch);
  G1 cg = internal::MessageBase(mvk, mu);

  std::vector<G2> xi(rows);  // A * B^{u_i}
  for (std::size_t i = 0; i < rows; ++i) {
    xi[i] = mvk.a + mvk.precomp().b_tab.Mul(RoleScalar(msp.row_labels[i]));
  }

  if (exact) {
    // e(W, A0) == e(Y, h0)
    if (!crypto::MultiPairing({{sig.w, mvk.a0}, {-sig.y, mvk.h0}}).IsOne()) {
      return false;
    }
    for (std::size_t j = 0; j < cols; ++j) {
      std::vector<std::pair<G1, G2>> pairs;
      for (std::size_t i = 0; i < rows; ++i) {
        if (msp.m[i][j] == 1) {
          pairs.emplace_back(sig.s[i], xi[i]);
        } else if (msp.m[i][j] == -1) {
          pairs.emplace_back(-sig.s[i], xi[i]);
        }
      }
      if (j == 0) pairs.emplace_back(-sig.y, mvk.h);
      pairs.emplace_back(-cg, sig.p[j]);
      if (!crypto::MultiPairing(pairs).IsOne()) return false;
    }
    return true;
  }

  // Batched verification: fold the W-equation (weight delta) and all t
  // column equations (weights rho_j) into a single pairing product. The
  // batching weights stay plain Fr (variable-time folds): they are drawn
  // fresh after the signature is fixed and protect only this call's
  // soundness, so leaking them post-hoc is harmless — quarantined in
  // DESIGN.md.
  Rng rng;  // fresh OS-seeded randomness for the batching weights
  Fr delta = rng.NextNonZeroFr();
  std::vector<Fr> rho(cols);
  for (auto& r : rho) r = rng.NextNonZeroFr();

  std::vector<std::pair<G1, G2>> pairs;
  pairs.reserve(rows + 4);
  // sum_j rho_j * [column j equation]:
  //   prod_i e(S_i, X_i)^{sum_j M_ij rho_j}
  //     == e(Y, h)^{rho_0} * e(cg, sum_j rho_j P_j)
  // The fold weight is applied on the G1 side (e(S_i^{c_i}, X_i)) where a
  // scalar multiplication is ~3x cheaper than in G2.
  for (std::size_t i = 0; i < rows; ++i) {
    Fr ci = Fr::Zero();
    for (std::size_t j = 0; j < cols; ++j) {
      if (msp.m[i][j] == 1) {
        ci = ci + rho[j];
      } else if (msp.m[i][j] == -1) {
        ci = ci - rho[j];
      }
    }
    if (!ci.IsZero()) pairs.emplace_back(sig.s[i].ScalarMul(ci), xi[i]);
  }
  G2 psum = crypto::G2Msm(std::span<const G2>(sig.p.data(), cols),
                          std::span<const Fr>(rho.data(), cols));
  pairs.emplace_back(-sig.y.ScalarMul(rho[0]), mvk.h);
  pairs.emplace_back(-cg, psum);
  // delta * [e(W, A0) == e(Y, h0)]
  pairs.emplace_back(sig.w.ScalarMul(delta), mvk.a0);
  pairs.emplace_back(-sig.y.ScalarMul(delta), mvk.h0);
  return crypto::MultiPairing(pairs).IsOne();
}

}  // namespace apqa::abs
