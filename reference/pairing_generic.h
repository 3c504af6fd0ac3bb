// Reference arms of the pairing and curve layers (apqa_reference).
//
// Deliberately simple, definitional formulations kept as differential
// oracles for the production engine in src/crypto. Only tests and benches
// link this library; nothing in `apqa` calls it.
#ifndef APQA_REFERENCE_PAIRING_GENERIC_H_
#define APQA_REFERENCE_PAIRING_GENERIC_H_

#include <utility>
#include <vector>

#include "crypto/curve.h"
#include "crypto/pairing.h"

namespace apqa::crypto {

// Generic Miller loop f_{|u|,Q}(P) over the untwisted image of G2 in
// E(Fp12), with affine line functions (conjugated for the negative curve
// parameter). GT::One() if either input is infinity.
GT MillerLoopGeneric(const G1& p, const G2& q);

// The exact exponent f^((p^12 - 1) / r), computed by generic windowed
// exponentiation against an integer-arithmetic-derived hard part. The
// production chain satisfies
// FinalExponentiation(f) == FinalExponentiationGeneric(f)^3.
GT FinalExponentiationGeneric(const GT& f);

// FinalExponentiationGeneric(prod_i MillerLoopGeneric(p_i, q_i))^3: the
// value crypto::MultiPairing must return for the same pairs.
GT MultiPairingGeneric(const std::vector<std::pair<G1, G2>>& pairs);

// The definitional subgroup check r·P = ∞, the oracle for the endomorphism
// tests in CurvePoint::InPrimeOrderSubgroup.
template <typename F>
bool InPrimeOrderSubgroupByOrder(const CurvePoint<F>& p) {
  if (p.IsInfinity()) return true;
  return p.ScalarMulCanonical(Fr::Modulus()).IsInfinity();
}

}  // namespace apqa::crypto

#endif  // APQA_REFERENCE_PAIRING_GENERIC_H_
