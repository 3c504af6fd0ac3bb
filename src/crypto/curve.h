// Short Weierstrass curve arithmetic (a = 0) in Jacobian coordinates,
// generic over the coordinate field. Instantiated for G1 (over Fp) and
// G2 (over Fp2) of BLS12-381, and for the untwisted image of G2 over Fp12
// inside the Miller loop.
#ifndef APQA_CRYPTO_CURVE_H_
#define APQA_CRYPTO_CURVE_H_

#include <type_traits>

#include "crypto/fp2.h"
#include "crypto/glv.h"

namespace apqa::crypto {

// Taint wrapper for secret scalars (crypto/ct.h). Forward-declared here so
// the variable-time entry points below can delete their Secret overloads:
// passing a SecretFr to ScalarMul is a compile error, not a silent leak.
template <typename T>
class Secret;

// Coefficients of the untwist-Frobenius-twist endomorphism of the G2 curve,
// psi(x, y) = (conj(x) * c1, conj(y) * c2) with c1 = xi^-((p-1)/3) and
// c2 = xi^-((p-1)/2), xi = 1 + i. Derived at first use from exact integer
// exponents and validated against the generator (curve.cc).
struct PsiCoeffs {
  Fp2 c1, c2;
};
const PsiCoeffs& G2PsiCoeffs();

template <typename F>
struct CurvePoint {
  // Jacobian coordinates (X/Z^2, Y/Z^3); Z == 0 encodes infinity.
  F x, y, z;

  static CurvePoint Infinity() { return {F::Zero(), F::One(), F::Zero()}; }

  static CurvePoint FromAffine(const F& ax, const F& ay) {
    return {ax, ay, F::One()};
  }

  bool IsInfinity() const { return z.IsZero(); }

  CurvePoint operator-() const { return {x, -y, z}; }

  CurvePoint Double() const {
    if (IsInfinity()) return *this;
    // dbl-2009-l formulas for a = 0.
    F a = x.Square();
    F b = y.Square();
    F c = b.Square();
    F t = (x + b).Square() - a - c;
    F d = t + t;
    F e = a + a + a;
    F f = e.Square();
    F x3 = f - (d + d);
    F c8 = c + c;
    c8 = c8 + c8;
    c8 = c8 + c8;
    F y3 = e * (d - x3) - c8;
    F yz = y * z;
    F z3 = yz + yz;
    return {x3, y3, z3};
  }

  CurvePoint operator+(const CurvePoint& o) const {
    if (IsInfinity()) return o;
    if (o.IsInfinity()) return *this;
    // add-2007-bl general Jacobian addition.
    F z1z1 = z.Square();
    F z2z2 = o.z.Square();
    F u1 = x * z2z2;
    F u2 = o.x * z1z1;
    F s1 = y * o.z * z2z2;
    F s2 = o.y * z * z1z1;
    if (u1 == u2) {
      if (s1 == s2) return Double();
      return Infinity();
    }
    F h = u2 - u1;
    F i = (h + h).Square();
    F j = h * i;
    F rr = (s2 - s1);
    rr = rr + rr;
    F v = u1 * i;
    F x3 = rr.Square() - j - (v + v);
    F s1j = s1 * j;
    F y3 = rr * (v - x3) - (s1j + s1j);
    F z3 = ((z + o.z).Square() - z1z1 - z2z2) * h;
    return {x3, y3, z3};
  }

  CurvePoint operator-(const CurvePoint& o) const { return *this + (-o); }

  // Mixed addition with an affine point (implicit Z2 = 1); madd-2007-bl.
  // Saves 4 field multiplications over the general addition, which is what
  // makes precomputed affine tables (msm.h) pay off.
  CurvePoint AddMixed(const F& bx, const F& by) const {
    if (IsInfinity()) return FromAffine(bx, by);
    F z1z1 = z.Square();
    F u2 = bx * z1z1;
    F s2 = by * z * z1z1;
    if (x == u2) {
      if (y == s2) return Double();
      return Infinity();
    }
    F h = u2 - x;
    F hh = h.Square();
    F i = hh + hh;
    i = i + i;
    F j = h * i;
    F rr = s2 - y;
    rr = rr + rr;
    F v = x * i;
    F x3 = rr.Square() - j - (v + v);
    F yj = y * j;
    F y3 = rr * (v - x3) - (yj + yj);
    F z3 = (z + h).Square() - z1z1 - hh;
    return {x3, y3, z3};
  }

  // The GLV endomorphism phi(x, y) = (beta * x, y): multiplication by
  // lambda on the prime-order subgroup (crypto/glv.h). One coordinate-field
  // multiply; scaling Jacobian X scales affine x = X/Z^2 the same way.
  // Only instantiable for fields with GlvEndo enabled (Fp, Fp2).
  CurvePoint Endo() const { return {GlvEndo<F>::Beta() * x, y, z}; }

  // Scalar multiplication by a canonical Fr scalar. NOT constant time — the
  // recoding loop, digit skips and table indices all depend on the scalar —
  // so it accepts public scalars only; secret scalars are rejected at
  // compile time and go through CtScalarMul / FixedBaseTable::MulCt
  // (crypto/ct.h, crypto/msm.h) instead.
  //
  // On the Fp/Fp2 instantiations this runs the GLV-decomposed dual wNAF
  // (half the doubling depth), which requires *this to lie in the
  // prime-order subgroup — every deserialized point is subgroup-checked
  // before use, and internally generated points are multiples of the
  // generators. Fields without an endomorphism fall back to the plain
  // width-4 wNAF.
  CurvePoint ScalarMul(const Fr& k) const {
    if constexpr (GlvEndo<F>::kEnabled) {
      return ScalarMulGlv(k.ToCanonical());
    } else {
      return ScalarMulCanonical(k.ToCanonical());
    }
  }
  CurvePoint ScalarMul(const Secret<Fr>&) const = delete;

  // Width-4 non-adjacent-form recoding: odd digits in {±1, ±3, ..., ±15}.
  // One extra limb absorbs the possible carry out of the top bit, so the
  // output can be one digit longer than the input bit length. `digits`
  // must hold 5 * 64 + 1 entries; entries past the returned length are not
  // written.
  static int Wnaf4(const Limbs<4>& e, signed char* digits) {
    Limbs<5> n{};
    for (int i = 0; i < 4; ++i) n[i] = e[i];
    int len = 0;
    while (!IsZeroLimbs<5>(n)) {
      int d = 0;
      if (n[0] & 1) {
        d = static_cast<int>(n[0] & 15);
        if (d >= 8) d -= 16;
        if (d > 0) {
          Limbs<5> v{};
          v[0] = static_cast<u64>(d);
          SubLimbs<5>(n, v, &n);
        } else {
          Limbs<5> v{};
          v[0] = static_cast<u64>(-d);
          AddLimbs<5>(n, v, &n);
        }
      }
      digits[len++] = static_cast<signed char>(d);
      Shr1Limbs<5>(&n);
    }
    return len;
  }

  // Scalar multiplication by an arbitrary 4-limb integer that need not be
  // reduced mod r, with no subgroup assumption on the point. Plain width-4
  // wNAF over the full scalar; the subgroup membership checks below rely on
  // exactly this genericity.
  CurvePoint ScalarMulCanonical(const Limbs<4>& e) const {
    if (IsZeroLimbs<4>(e)) return Infinity();

    signed char digits[5 * 64 + 1];
    int len = Wnaf4(e, digits);

    // Precompute odd multiples P, 3P, ..., 15P.
    CurvePoint table[8];
    table[0] = *this;
    CurvePoint twice = Double();
    for (int i = 1; i < 8; ++i) table[i] = table[i - 1] + twice;

    CurvePoint acc = Infinity();
    for (int i = len; i-- > 0;) {
      acc = acc.Double();
      int d = digits[i];
      if (d > 0) {
        acc = acc + table[d / 2];
      } else if (d < 0) {
        acc = acc - table[(-d) / 2];
      }
    }
    return acc;
  }

  // GLV dual-track wNAF: split e = k1 + k2 * lambda (both sub-scalars
  // nonnegative, ≤128 bits for canonical inputs) and interleave
  // k1 * P + k2 * phi(P) under one shared doubling chain of half the usual
  // depth. The phi-track table is the beta-scaled image of the P-track
  // table (one field multiply per entry — phi commutes with the group law).
  // Requires *this in the prime-order subgroup; accepts any e < 2^255.
  CurvePoint ScalarMulGlv(const Limbs<4>& e) const {
    static_assert(GlvEndo<F>::kEnabled);
    if (IsZeroLimbs<4>(e)) return Infinity();
    const GlvDecomp k = GlvSplitLimbs(e);

    signed char d1[5 * 64 + 1], d2[5 * 64 + 1];
    const int l1 = Wnaf4(k.k1, d1);
    const int l2 = Wnaf4(k.k2, d2);

    CurvePoint tp[8];
    tp[0] = *this;
    CurvePoint twice = Double();
    for (int i = 1; i < 8; ++i) tp[i] = tp[i - 1] + twice;
    const F& beta = GlvEndo<F>::Beta();
    CurvePoint tq[8];
    for (int i = 0; i < 8; ++i) tq[i] = {tp[i].x * beta, tp[i].y, tp[i].z};

    CurvePoint acc = Infinity();
    for (int i = (l1 > l2 ? l1 : l2); i-- > 0;) {
      acc = acc.Double();
      if (i < l1) {
        int d = d1[i];
        if (d > 0) {
          acc = acc + tp[d / 2];
        } else if (d < 0) {
          acc = acc - tp[(-d) / 2];
        }
      }
      if (i < l2) {
        int d = d2[i];
        if (d > 0) {
          acc = acc + tq[d / 2];
        } else if (d < 0) {
          acc = acc - tq[(-d) / 2];
        }
      }
    }
    return acc;
  }

  // [|z|]P for the BLS parameter |z| = kBlsParamAbs (64 bits, Hamming
  // weight 6): 63 doublings and 5 additions, no recoding and no table. The
  // chain both subgroup checks below are built from; variable time, public
  // points only, no subgroup assumption on *this.
  CurvePoint MulByAbsZ() const {
    CurvePoint acc = *this;
    for (int i = 62; i >= 0; --i) {
      acc = acc.Double();
      if ((kBlsParamAbs >> i) & 1) acc = acc + *this;
    }
    return acc;
  }

  // psi(X, Y, Z) = (conj(X) c1, conj(Y) c2, conj(Z)) on the G2 twist. The
  // Jacobian form is exact because conjugation is a field automorphism:
  // conj(X / Z^2) = conj(X) / conj(Z)^2. On the prime-order subgroup psi
  // acts as [p] = [z] (mod r).
  CurvePoint Psi() const
    requires std::is_same_v<F, Fp2>
  {
    const PsiCoeffs& c = G2PsiCoeffs();
    return {x.Conjugate() * c.c1, y.Conjugate() * c.c2, z.Conjugate()};
  }

  // Reference double-and-add implementation (kept for cross-validation in
  // tests).
  CurvePoint ScalarMulBinary(const Fr& k) const {
    Limbs<4> e = k.ToCanonical();
    CurvePoint acc = Infinity();
    std::size_t bits = BitLengthLimbs<4>(e);
    for (std::size_t i = bits; i-- > 0;) {
      acc = acc.Double();
      if (BitLimbs<4>(e, i)) acc = acc + *this;
    }
    return acc;
  }

  // Normalizes to affine coordinates; infinity maps to (0, 0, 0). Points
  // already at Z = 1 (deserialized, or normalized by BatchToAffine) skip
  // the inversion.
  void ToAffine(F* ax, F* ay) const {
    if (IsInfinity()) {
      *ax = F::Zero();
      *ay = F::Zero();
      return;
    }
    if (z == F::One()) {
      *ax = x;
      *ay = y;
      return;
    }
    F zi = z.Inverse();
    F zi2 = zi.Square();
    *ax = x * zi2;
    *ay = y * zi2 * zi;
  }

  bool operator==(const CurvePoint& o) const {
    if (IsInfinity() || o.IsInfinity()) {
      return IsInfinity() == o.IsInfinity();
    }
    // Cross-multiplied comparison avoids inversions.
    F z1z1 = z.Square();
    F z2z2 = o.z.Square();
    if (x * z2z2 != o.x * z1z1) return false;
    return y * o.z * z2z2 == o.y * z * z1z1;
  }
  bool operator!=(const CurvePoint& o) const { return !(*this == o); }

  // Checks y^2 == x^3 + b (affine form) for a given curve constant.
  bool OnCurve(const F& b) const {
    if (IsInfinity()) return true;
    F ax, ay;
    ToAffine(&ax, &ay);
    return ay.Square() == ax.Square() * ax + b;
  }

  // Prime-order-subgroup membership. Both BLS12-381 curves have composite
  // order h·r, and a signature forged from a small-cofactor component would
  // survive the curve-equation check, so every point read from untrusted
  // bytes must pass this too (after OnCurve — the endomorphism identities
  // are only meaningful for points satisfying the curve equation). Both
  // groups test an endomorphism against the [|z|] chain (MulByAbsZ), with
  // z = -kBlsParamAbs the BLS parameter and r = z^4 - z^2 + 1.
  //
  // G1 (Scott, ePrint 2021/1130 §6): P is in the r-subgroup iff
  // phi(P) == [lambda]P, lambda = z^2 - 1, evaluated as
  // phi(P) + P == [|z|]([|z|]P) — two 64-bit chains of Hamming weight 6
  // instead of a 128-bit wNAF. Soundness: phi satisfies
  // phi^2 + phi + 1 = 0 in End(E), so phi(P) = [lambda]P implies
  // [lambda^2 + lambda + 1]P = O, and lambda^2 + lambda + 1 = r exactly;
  // since gcd(h, r) = 1 the points killed by r form the unique r-subgroup.
  // Conversely phi acts as [lambda] on that (cyclic) subgroup — the
  // orientation validated against the generator at beta selection.
  //
  // G2 (Scott, ePrint 2021/1130 §4; proof corrected in El Housni, Guillevic
  // and Piellard, ePrint 2022/352): P is in the r-subgroup iff
  // psi(P) == [z]P = -[|z|]P — one 64-bit chain plus a conjugation and two
  // Fp2 multiplies. Soundness: psi satisfies psi^2 - t psi + p = 0 with
  // trace t = z + 1, so psi(P) = [z]P implies [z^2 - tz + p]P = [p - z]P
  // = O, and p - z = (z - 1)^2 r / 3 exactly. The order of P divides
  // #E'(Fp2) = h2·r as well, and gcd(h2, (z - 1)^2 / 3) = gcd(h2, r) = 1
  // for BLS12-381, so P is killed by r. Conversely psi acts as
  // [p] = [z] (mod r) on the r-subgroup, which G2PsiCoeffs() validates
  // against the generator at first use.
  //
  // The definitional check r·P = ∞ is the differential oracle
  // (InPrimeOrderSubgroupByOrder in reference/pairing_generic.h).
  bool InPrimeOrderSubgroup() const {
    if (IsInfinity()) return true;
    if constexpr (std::is_same_v<F, Fp2>) {
      return Psi() == -MulByAbsZ();
    } else {
      static_assert(GlvEndo<F>::kEnabled,
                    "subgroup check needs the GLV endomorphism");
      return Endo() + *this == MulByAbsZ().MulByAbsZ();
    }
  }
};

using G1 = CurvePoint<Fp>;
using G2 = CurvePoint<Fp2>;

// Standard generators and curve constants.
const G1& G1Generator();
const G2& G2Generator();
Fp G1CurveB();    // 4
Fp2 G2CurveB();   // 4 * (1 + i)

// g^k for the standard generators, via fixed-base tables (msm.h) built on
// first use. Variable time — public exponents only; CtG1Mul/CtG2Mul
// (crypto/ct.h) are the constant-pattern versions for secret exponents.
G1 G1Mul(const Fr& k);
G2 G2Mul(const Fr& k);
G1 G1Mul(const Secret<Fr>&) = delete;
G2 G2Mul(const Secret<Fr>&) = delete;

}  // namespace apqa::crypto

#endif  // APQA_CRYPTO_CURVE_H_
