// Prepared optimal ate pairing: cached G2 line coefficients.
//
// This is the library's one Miller-loop engine. Verification pairs the
// master verify key's fixed G2 points against many G1 points, and
// `Pairing`/`MultiPairing` prepare their G2 points per call. `G2Prepared`
// runs the Miller-loop G2 arithmetic once — with inversion-free homogeneous
// projective step formulas — and stores the three Fp2 line coefficients of
// every doubling/addition step. A subsequent pairing against any G1 point
// only evaluates the cached lines at P and folds them into the accumulator
// with the sparse Fp12 product; no G2 arithmetic and no Fp2 inversions
// remain on the per-pairing path.
//
// Thread-safety contract: a fully-constructed `G2Prepared` is immutable and
// safe to share read-only across threads without synchronization. All
// functions here only read the tables.
//
// Identity semantics (shared by `Pairing`/`MultiPairing`): a pair whose G1
// side is infinity or whose G2 side was prepared from infinity contributes
// the neutral element — `PairWith` returns GT::One() and
// `MultiPairingPrepared` skips the pair.
#ifndef APQA_CRYPTO_PAIRING_PREPARED_H_
#define APQA_CRYPTO_PAIRING_PREPARED_H_

#include <utility>
#include <vector>

#include "crypto/pairing.h"

namespace apqa::crypto {

// Coefficients of one Miller-loop line on the M-twist. Evaluated at an
// affine G1 point P = (x, y), the (w^3-scaled) line value is
//   c0 + (c1 * x) w^2 + (c2 * y) w^3,
// i.e. exactly the sparse shape Fp12::MulBySparseLine consumes.
struct G2LineCoeffs {
  Fp2 c0, c1, c2;
};

// Line-coefficient table for a fixed G2 point, one entry per step of the
// shared |u|-bit Miller schedule (63 doublings + 5 additions for BLS12-381,
// in schedule order).
class G2Prepared {
 public:
  // Prepared infinity: pairs against it are neutral.
  G2Prepared() = default;
  explicit G2Prepared(const G2& q);

  bool IsInfinity() const { return coeffs_.empty(); }
  const std::vector<G2LineCoeffs>& coeffs() const { return coeffs_; }

 private:
  std::vector<G2LineCoeffs> coeffs_;
};

// Miller loop f_{|u|,Q}(P) from cached coefficients (conjugated for the
// negative curve parameter). GT::One() if either side is the identity.
GT MillerLoopPrepared(const G1& p, const G2Prepared& q);

// e(p, q) from cached coefficients.
GT PairWith(const G1& p, const G2Prepared& q);

// One pairing input whose G2 side is prepared. The pointed-to table must
// outlive the call; it is only read.
struct PreparedPair {
  G1 p;
  const G2Prepared* q;
};

// prod e(p_i, q_i) over prepared pairs plus optional on-the-fly `fresh`
// pairs, with one shared final exponentiation. Fresh G2 points are prepared
// internally (inversion-free), so mixing cached and per-query G2 points
// costs no extra Fp2 inversions. Pairs with an identity side are skipped;
// if every pair is skipped the result is GT::One().
GT MultiPairingPrepared(const std::vector<PreparedPair>& prepared,
                        const std::vector<std::pair<G1, G2>>& fresh = {});

}  // namespace apqa::crypto

#endif  // APQA_CRYPTO_PAIRING_PREPARED_H_
