// Optimal ate pairing e : G1 x G2 -> GT for BLS12-381.
//
// The one Miller-loop engine is the prepared-line schedule of
// crypto/pairing_prepared.h: `Pairing` and `MultiPairing` prepare their G2
// points per call (inversion-free) and run it. Products of pairings share a
// single final exponentiation. The generic loop over E(Fp12) and the
// exact-exponent final exponentiation live in the reference library
// (reference/pairing_generic.h) as oracles.
#ifndef APQA_CRYPTO_PAIRING_H_
#define APQA_CRYPTO_PAIRING_H_

#include <utility>
#include <vector>

#include "crypto/curve.h"
#include "crypto/fp12.h"

namespace apqa::crypto {

using GT = Fp12;

// Final exponentiation. Computes f^(3 (p^12 - 1) / r) via the BLS12
// parameter addition chain; the fixed cube is coprime to r, so the result
// is still a non-degenerate bilinear pairing (the convention production
// BLS12-381 libraries use) and IsOne checks are unaffected. Every pairing
// path in this library shares this one function; the reference library's
// FinalExponentiationGeneric(f)^3 is its unit-tested oracle.
GT FinalExponentiation(const GT& f);

// e(p, q).
GT Pairing(const G1& p, const G2& q);

// prod_i e(p_i, q_i) with one shared final exponentiation:
// MultiPairingPrepared({}, pairs). Pairs with an identity side are skipped.
GT MultiPairing(const std::vector<std::pair<G1, G2>>& pairs);

}  // namespace apqa::crypto

#endif  // APQA_CRYPTO_PAIRING_H_
