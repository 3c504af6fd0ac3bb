#include "reference/pairing_generic.h"

#include <cstdlib>
#include <vector>

#include "crypto/bigint.h"

namespace apqa::crypto {

namespace {

// Embeds an Fp element into Fp12 (constant coefficient).
Fp12 EmbedFp(const Fp& a) {
  Fp12 r = Fp12::Zero();
  r.c0.c0.c0 = a;
  return r;
}

// Embeds an Fp2 element into Fp12.
Fp12 EmbedFp2(const Fp2& a) {
  Fp12 r = Fp12::Zero();
  r.c0.c0 = a;
  return r;
}

struct UntwistConsts {
  Fp12 winv2;  // w^-2
  Fp12 winv3;  // w^-3
};

const UntwistConsts& Untwist() {
  static const UntwistConsts c = [] {
    Fp12 w = Fp12::Zero();
    w.c1.c0 = Fp2::One();  // the element w itself
    Fp12 w2 = w.Square();
    UntwistConsts uc;
    uc.winv2 = w2.Inverse();
    uc.winv3 = (w2 * w).Inverse();
    return uc;
  }();
  return c;
}

// Exponent of the final-exponentiation hard part, (p^4 - p^2 + 1) / r,
// derived by exact integer arithmetic at first use.
const std::vector<u64>& HardPartExponent() {
  static const std::vector<u64> e = [] {
    BigInt p = BigInt::FromLimbs(FpTag::kModulus.data(), 6);
    BigInt r = BigInt::FromLimbs(FrTag::kModulus.data(), 4);
    BigInt p2 = p * p;
    BigInt p4 = p2 * p2;
    BigInt num = p4 - p2 + BigInt(1);
    BigInt q, rem;
    BigInt::DivMod(num, r, &q, &rem);
    // The BLS family guarantees exact divisibility; a failure here would
    // mean the curve constants are corrupted.
    if (!rem.IsZero()) std::abort();
    std::vector<u64> limbs((q.BitLength() + 63) / 64);
    q.ToLimbs(limbs.data(), limbs.size());
    return limbs;
  }();
  return e;
}

// Affine point in E(Fp12).
struct Pt {
  Fp12 x, y;
};

// Line through a and b (or tangent at a if a == b) evaluated at the
// (embedded) G1 point (xp, yp); also advances a to a+b (or 2a).
Fp12 LineAndStep(Pt* a, const Pt& b, bool tangent, const Fp12& xp,
                 const Fp12& yp) {
  Fp12 lambda;
  if (tangent) {
    Fp12 x2 = a->x.Square();
    lambda = (x2 + x2 + x2) * (a->y + a->y).Inverse();
  } else {
    lambda = (b.y - a->y) * (b.x - a->x).Inverse();
  }
  Fp12 l = yp - a->y - lambda * (xp - a->x);
  Fp12 x3 = lambda.Square() - a->x - b.x;
  Fp12 y3 = lambda * (a->x - x3) - a->y;
  a->x = x3;
  a->y = y3;
  return l;
}

}  // namespace

GT MillerLoopGeneric(const G1& p, const G2& q) {
  if (p.IsInfinity() || q.IsInfinity()) return GT::One();

  Fp pax, pay;
  p.ToAffine(&pax, &pay);
  Fp12 xp = EmbedFp(pax);
  Fp12 yp = EmbedFp(pay);

  Fp2 qax, qay;
  q.ToAffine(&qax, &qay);
  const auto& ut = Untwist();
  Pt qq{EmbedFp2(qax) * ut.winv2, EmbedFp2(qay) * ut.winv3};
  Pt t = qq;

  Fp12 f = Fp12::One();
  // |u| has 64 bits; iterate from the bit below the MSB down to 0.
  int msb = 63;
  while (!((kBlsParamAbs >> msb) & 1)) --msb;
  for (int i = msb - 1; i >= 0; --i) {
    f = f.Square() * LineAndStep(&t, t, /*tangent=*/true, xp, yp);
    if ((kBlsParamAbs >> i) & 1) {
      f = f * LineAndStep(&t, qq, /*tangent=*/false, xp, yp);
    }
  }
  // u < 0: conjugate (the vertical-line correction dies in the final
  // exponentiation).
  return f.Conjugate();
}

GT FinalExponentiationGeneric(const GT& f) {
  // Easy part f^((p^6 - 1)(p^2 + 1)), then the exact hard part
  // (p^4 - p^2 + 1)/r derived by integer arithmetic.
  GT t = f.Conjugate() * f.Inverse();
  t = t.Frobenius().Frobenius() * t;
  const auto& e = HardPartExponent();
  return t.PowCyclotomic(std::span<const u64>(e.data(), e.size()));
}

GT MultiPairingGeneric(const std::vector<std::pair<G1, G2>>& pairs) {
  GT f = GT::One();
  for (const auto& [p, q] : pairs) f = f * MillerLoopGeneric(p, q);
  GT e = FinalExponentiationGeneric(f);
  return e * e * e;
}

}  // namespace apqa::crypto
