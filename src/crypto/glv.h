// GLV/GLS scalar decomposition for the BLS12-381 groups.
//
// Both curves have j-invariant 0, so x -> beta*x (beta a primitive cube root
// of unity in Fp) is a degree-1 endomorphism phi of E and of the sextic
// twist E' (the cube roots of unity in Fp2 are exactly those of Fp). On the
// prime-order subgroup phi acts as multiplication by the eigenvalue
//
//   lambda = z^2 - 1   (exactly 128 bits; z is the BLS parameter)
//
// and the identity lambda^2 + lambda + 1 = z^4 - z^2 + 1 = r holds as plain
// integers. Splitting k = k1 + k2*lambda with
//
//   k1 = k mod lambda,   k2 = floor(k / lambda)
//
// therefore yields two NONNEGATIVE sub-scalars of at most 128 bits for any
// canonical k < r (and for anything below lambda * 2^128 ~ 2^255.4, which
// covers the r and 2^255 - 1 edge cases), so every variable-time kernel can
// run its window/wNAF loop at half depth against the pair (P, phi(P)) —
// no signed mini-scalars, no rounding off-by-ones.
//
// The split itself is BRANCH-FREE (Barrett quotient with masked
// corrections, GlvSplitLimbs), so the constant-pattern fixed-base walk
// (FixedBaseTable::MulCt) can decompose SecretFr material without leaking.
// The convenience wrapper GlvSplit() below is the entry point for the
// VARIABLE-TIME consumers (wNAF recoding, Pippenger bucketing downstream)
// and statically rejects tainted scalars: a SecretFr must never reach a
// data-dependent recode loop, decomposed or not.
//
// Correctness of the eigenvalue relation is not assumed from constants:
// beta is derived at first use (g^((p-1)/3) for the first non-residue g)
// and the beta/beta^2 ambiguity is resolved per group by checking
// phi(G) == [lambda]G against the standard generator, aborting if neither
// matches (tests/curve_test.cc re-validates both groups).
#ifndef APQA_CRYPTO_GLV_H_
#define APQA_CRYPTO_GLV_H_

#include <type_traits>

#include "crypto/fp2.h"

namespace apqa::crypto {

// Forward declaration of the secret-taint wrapper (crypto/ct.h) so the
// variable-time split below can reject it at compile time.
template <typename T>
class Secret;

// Endomorphism trait for curve coordinate fields. The primary template
// disables GLV; the Fp/Fp2 specializations — the only CurvePoint fields in
// use — expose the per-group beta, validated against the generator on
// first use.
template <typename F>
struct GlvEndo {
  static constexpr bool kEnabled = false;
};

template <>
struct GlvEndo<Fp> {
  static constexpr bool kEnabled = true;
  static const Fp& Beta();
};

template <>
struct GlvEndo<Fp2> {
  static constexpr bool kEnabled = true;
  static const Fp2& Beta();
};

// lambda = z^2 - 1 as a 4-limb little-endian integer (top two limbs zero);
// the shape ScalarMulCanonical and the window extractors already consume.
const Limbs<4>& GlvLambda();

// k = k1 + k2 * lambda with 0 <= k1 < lambda and k2 = floor(k / lambda).
struct GlvDecomp {
  Limbs<4> k1, k2;
};

// Branch-free decomposition of an arbitrary 4-limb integer: Barrett
// quotient against the precomputed mu = floor(2^384 / lambda) followed by
// masked corrections — fixed instruction and memory-access sequence for
// every input, so secret canonical scalars may flow through (the Limbs
// themselves are handled under the constant-time discipline of the caller).
GlvDecomp GlvSplitLimbs(const Limbs<4>& e);

template <typename K>
struct IsSecretScalar : std::false_type {};
template <typename K>
struct IsSecretScalar<Secret<K>> : std::true_type {};

// Decomposition entry point for the VARIABLE-TIME kernels (wNAF recode,
// fixed-base window skip, Pippenger bucketing all branch on the
// sub-scalars). Secret scalars are rejected here, at the source, rather
// than at each downstream consumer: constant-pattern callers go straight
// to GlvSplitLimbs on the ct_ref() limbs instead.
template <typename K>
inline GlvDecomp GlvSplit(const K& k) {
  static_assert(!IsSecretScalar<K>::value,
                "GlvSplit feeds variable-time recoding; decompose secret "
                "scalars inside a constant-pattern kernel via GlvSplitLimbs "
                "(FixedBaseTable::MulCt) instead");
  return GlvSplitLimbs(k.ToCanonical());
}

}  // namespace apqa::crypto

#endif  // APQA_CRYPTO_GLV_H_
