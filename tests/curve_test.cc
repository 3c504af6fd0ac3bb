// Tests for G1/G2 group law, the standard BLS12-381 generators, the GLV
// endomorphism/decomposition, the G2 psi endomorphism, and the fast
// subgroup membership checks.
#include <gtest/gtest.h>

#include "crypto/bigint.h"
#include "crypto/curve.h"
#include "crypto/rng.h"
#include "reference/pairing_generic.h"
#include "test_hostile_points.h"

namespace apqa::crypto {
namespace {

// The edge scalars every variable-time arm must survive: 0, 1, 2, r-1
// (canonical extremes) plus the non-canonical r and 2^255 - 1 that only the
// Limbs entry points accept (deserialization rejects them, but the kernels
// themselves must not misbehave if an internal caller ever passes one).
std::vector<Limbs<4>> EdgeScalarLimbs() {
  Limbs<4> zero{}, one{}, two{};
  one[0] = 1;
  two[0] = 2;
  Limbs<4> rm1 = FrTag::kModulus;
  rm1[0] -= 1;  // r is odd
  Limbs<4> top{};  // 2^255 - 1
  for (auto& l : top) l = ~u64{0};
  top[3] >>= 1;
  return {zero, one, two, rm1, FrTag::kModulus, top};
}

TEST(G1Test, GeneratorOnCurve) {
  EXPECT_TRUE(G1Generator().OnCurve(G1CurveB()));
  EXPECT_FALSE(G1Generator().IsInfinity());
}

TEST(G1Test, GeneratorHasOrderR) {
  // r * G == infinity validates both the subgroup order constant and the
  // generator coordinates.
  Limbs<4> r = FrTag::kModulus;
  G1 acc = G1::Infinity();
  const G1& g = G1Generator();
  for (std::size_t i = BitLengthLimbs<4>(r); i-- > 0;) {
    acc = acc.Double();
    if (BitLimbs<4>(r, i)) acc = acc + g;
  }
  EXPECT_TRUE(acc.IsInfinity());
}

TEST(G2Test, GeneratorOnCurve) {
  EXPECT_TRUE(G2Generator().OnCurve(G2CurveB()));
}

TEST(G2Test, GeneratorHasOrderR) {
  Limbs<4> r = FrTag::kModulus;
  G2 acc = G2::Infinity();
  const G2& g = G2Generator();
  for (std::size_t i = BitLengthLimbs<4>(r); i-- > 0;) {
    acc = acc.Double();
    if (BitLimbs<4>(r, i)) acc = acc + g;
  }
  EXPECT_TRUE(acc.IsInfinity());
}

TEST(G1Test, GroupLaws) {
  Rng rng(42);
  G1 a = G1Mul(rng.NextFr());
  G1 b = G1Mul(rng.NextFr());
  G1 c = G1Mul(rng.NextFr());
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a + G1::Infinity(), a);
  EXPECT_TRUE((a - a).IsInfinity());
  EXPECT_EQ(a.Double(), a + a);
  EXPECT_TRUE(a.OnCurve(G1CurveB()));
  EXPECT_TRUE((a + b).OnCurve(G1CurveB()));
}

TEST(G1Test, ScalarMulDistributes) {
  Rng rng(43);
  Fr x = rng.NextFr(), y = rng.NextFr();
  // g^(x+y) == g^x * g^y
  EXPECT_EQ(G1Mul(x + y), G1Mul(x) + G1Mul(y));
  // (g^x)^y == g^(xy)
  EXPECT_EQ(G1Mul(x).ScalarMul(y), G1Mul(x * y));
}

TEST(G2Test, ScalarMulDistributes) {
  Rng rng(44);
  Fr x = rng.NextFr(), y = rng.NextFr();
  EXPECT_EQ(G2Mul(x + y), G2Mul(x) + G2Mul(y));
  EXPECT_EQ(G2Mul(x).ScalarMul(y), G2Mul(x * y));
}

TEST(G1Test, AffineRoundTrip) {
  Rng rng(45);
  G1 a = G1Mul(rng.NextFr());
  Fp ax, ay;
  a.ToAffine(&ax, &ay);
  EXPECT_EQ(G1::FromAffine(ax, ay), a);
}

TEST(G1Test, ScalarMulByZeroAndOne) {
  EXPECT_TRUE(G1Mul(Fr::Zero()).IsInfinity());
  EXPECT_EQ(G1Mul(Fr::One()), G1Generator());
}

TEST(G1Test, WnafMatchesBinaryScalarMul) {
  Rng rng(47);
  const G1& g = G1Generator();
  for (int i = 0; i < 20; ++i) {
    Fr k = rng.NextFr();
    EXPECT_EQ(g.ScalarMul(k), g.ScalarMulBinary(k));
  }
  // Edge scalars.
  EXPECT_TRUE(g.ScalarMul(Fr::Zero()).IsInfinity());
  EXPECT_EQ(g.ScalarMul(Fr::One()), g);
  EXPECT_EQ(g.ScalarMul(-Fr::One()), -g);
  EXPECT_EQ(g.ScalarMul(Fr::FromU64(15)), g.ScalarMulBinary(Fr::FromU64(15)));
  EXPECT_EQ(g.ScalarMul(Fr::FromU64(16)), g.ScalarMulBinary(Fr::FromU64(16)));
}

TEST(G2Test, WnafMatchesBinaryScalarMul) {
  Rng rng(48);
  const G2& g = G2Generator();
  for (int i = 0; i < 10; ++i) {
    Fr k = rng.NextFr();
    EXPECT_EQ(g.ScalarMul(k), g.ScalarMulBinary(k));
  }
}

TEST(GlvTest, LambdaSatisfiesCharacteristicPolynomial) {
  // lambda^2 + lambda + 1 == r as plain integers — the identity both the
  // decomposition bound and the fast subgroup check lean on.
  BigInt lam = BigInt::FromLimbs(GlvLambda().data(), 4);
  BigInt r = BigInt::FromLimbs(FrTag::kModulus.data(), 4);
  EXPECT_TRUE(lam * lam + lam + BigInt(1) == r);
}

TEST(GlvTest, SplitReconstructsAndBounds) {
  BigInt lam = BigInt::FromLimbs(GlvLambda().data(), 4);
  auto check = [&](const Limbs<4>& e) {
    GlvDecomp d = GlvSplitLimbs(e);
    BigInt k1 = BigInt::FromLimbs(d.k1.data(), 4);
    BigInt k2 = BigInt::FromLimbs(d.k2.data(), 4);
    EXPECT_TRUE(k1 + k2 * lam == BigInt::FromLimbs(e.data(), 4));
    EXPECT_TRUE(k1.Compare(lam) < 0);
    // Both sub-scalars fit 128 bits for anything below lambda * 2^128,
    // which covers every edge scalar here including r and 2^255 - 1.
    EXPECT_EQ(d.k1[2], 0u);
    EXPECT_EQ(d.k1[3], 0u);
    EXPECT_EQ(d.k2[2], 0u);
    EXPECT_EQ(d.k2[3], 0u);
  };
  for (const Limbs<4>& e : EdgeScalarLimbs()) check(e);
  Rng rng(50);
  for (int i = 0; i < 200; ++i) check(rng.NextFr().ToCanonical());
  // The public wrapper agrees with the branch-free core.
  Fr k = rng.NextFr();
  GlvDecomp a = GlvSplit(k);
  GlvDecomp b = GlvSplitLimbs(k.ToCanonical());
  EXPECT_EQ(a.k1, b.k1);
  EXPECT_EQ(a.k2, b.k2);
}

TEST(G1Test, EndoActsAsLambdaOnSubgroup) {
  Rng rng(51);
  for (int i = 0; i < 10; ++i) {
    G1 p = G1Mul(rng.NextNonZeroFr());
    EXPECT_EQ(p.Endo(), p.ScalarMulCanonical(GlvLambda()));
    // phi^2 + phi + 1 == 0 in the endomorphism ring.
    EXPECT_TRUE((p.Endo().Endo() + p.Endo() + p).IsInfinity());
  }
}

TEST(G2Test, EndoActsAsLambdaOnSubgroup) {
  Rng rng(52);
  for (int i = 0; i < 5; ++i) {
    G2 p = G2Mul(rng.NextNonZeroFr());
    EXPECT_EQ(p.Endo(), p.ScalarMulCanonical(GlvLambda()));
    EXPECT_TRUE((p.Endo().Endo() + p.Endo() + p).IsInfinity());
  }
}

TEST(G1Test, GlvMatchesPlainWnafOnEdgeScalars) {
  Rng rng(53);
  G1 p = G1Mul(rng.NextNonZeroFr());
  // ScalarMulGlv requires a subgroup point but accepts any e < 2^255, so
  // it must agree with the subgroup-agnostic plain wNAF on r and
  // 2^255 - 1 too (both exceed r; the results wrap as k mod r on the
  // subgroup and the two arms must wrap identically).
  for (const Limbs<4>& e : EdgeScalarLimbs()) {
    EXPECT_EQ(p.ScalarMulGlv(e), p.ScalarMulCanonical(e));
  }
  for (int i = 0; i < 20; ++i) {
    Fr k = rng.NextFr();
    EXPECT_EQ(p.ScalarMul(k), p.ScalarMulBinary(k));
  }
}

TEST(G2Test, GlvMatchesPlainWnafOnEdgeScalars) {
  Rng rng(54);
  G2 p = G2Mul(rng.NextNonZeroFr());
  for (const Limbs<4>& e : EdgeScalarLimbs()) {
    EXPECT_EQ(p.ScalarMulGlv(e), p.ScalarMulCanonical(e));
  }
}

// [k]P for a small public k (the hostile-matrix multipliers).
template <typename F>
CurvePoint<F> MulSmall(const CurvePoint<F>& p, u64 k) {
  Limbs<4> e{};
  e[0] = k;
  return p.ScalarMulCanonical(e);
}

// The fast subgroup check must agree with the definitional r*P == infinity
// oracle — and with the known answer — on: random subgroup points,
// infinity, the hostile point H (full order h·r component), pure-cofactor
// torsion [r]H and [k·r]H (orders dividing the cofactor, coprime to r, so
// outside the subgroup unless the multiple collapses to infinity), small
// multiples of H, and the mixed points H + G and [r]H + G.
template <typename F>
void ExpectSubgroupMatrix(const CurvePoint<F>& gen, const CurvePoint<F>& h,
                          Rng* rng) {
  using Pt = CurvePoint<F>;
  auto check = [](const Pt& p, bool expected, const std::string& what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(p.InPrimeOrderSubgroup(), InPrimeOrderSubgroupByOrder(p));
    EXPECT_EQ(p.InPrimeOrderSubgroup(), expected);
  };
  for (int i = 0; i < 32; ++i) {
    check(gen.ScalarMul(rng->NextNonZeroFr()), true, "random subgroup point");
  }
  check(Pt::Infinity(), true, "infinity");
  check(h, false, "hostile H");
  for (u64 k = 2; k < 6; ++k) {
    check(MulSmall(h, k), false, "[k]H, k = " + std::to_string(k));
  }
  const Pt rh = h.ScalarMulCanonical(Fr::Modulus());
  ASSERT_FALSE(rh.IsInfinity());
  check(rh, false, "[r]H");
  for (u64 k = 2; k < 8; ++k) {
    const Pt m = MulSmall(rh, k);
    check(m, m.IsInfinity(), "[k·r]H, k = " + std::to_string(k));
  }
  check(h + gen, false, "H + G");
  check(rh + gen, false, "[r]H + G");
  check(rh + gen.ScalarMul(rng->NextNonZeroFr()), false, "[r]H + [k]G");
}

TEST(G1Test, SubgroupFastCheckMatchesByOrder) {
  Rng rng(55);
  G1 h = hostile::NonSubgroupG1();
  ASSERT_TRUE(h.OnCurve(G1CurveB()));
  ExpectSubgroupMatrix(G1Generator(), h, &rng);
}

TEST(G2Test, SubgroupFastCheckMatchesByOrder) {
  Rng rng(56);
  G2 h = hostile::NonSubgroupG2();
  ASSERT_TRUE(h.OnCurve(G2CurveB()));
  ExpectSubgroupMatrix(G2Generator(), h, &rng);
}

TEST(G1Test, MulByAbsZMatchesWnaf) {
  Limbs<4> z{kBlsParamAbs, 0, 0, 0};
  Rng rng(57);
  G1 p = G1Mul(rng.NextNonZeroFr());
  EXPECT_EQ(p.MulByAbsZ(), p.ScalarMulCanonical(z));
  G1 h = hostile::NonSubgroupG1();
  EXPECT_EQ(h.MulByAbsZ(), h.ScalarMulCanonical(z));
  EXPECT_TRUE(G1::Infinity().MulByAbsZ().IsInfinity());
}

// psi acts as [z] = [p] (mod r) on the prime-order subgroup, and satisfies
// the Frobenius characteristic polynomial psi^2 - t psi + p = 0 (t = z + 1)
// on the whole twist — the two facts the soundness argument of the G2
// subgroup check rests on (curve.h).
TEST(G2Test, PsiActsAsZOnSubgroup) {
  Rng rng(58);
  // z = -|z| as an Fr scalar: [z]P == psi(P) on the subgroup.
  Fr z = -Fr::FromU64(kBlsParamAbs);
  Limbs<4> zl{kBlsParamAbs, 0, 0, 0};
  for (int i = 0; i < 8; ++i) {
    G2 p = G2Mul(rng.NextNonZeroFr());
    EXPECT_EQ(p.Psi(), -p.MulByAbsZ());
    EXPECT_EQ(p.Psi(), p.ScalarMul(z));
    EXPECT_EQ(p.MulByAbsZ(), p.ScalarMulCanonical(zl));
  }
  // [p]P by plain double-and-add over the 381-bit field modulus.
  auto mul_by_p = [](const G2& q) {
    const Limbs<6>& pl = Fp::Modulus();
    G2 acc = G2::Infinity();
    for (std::size_t b = BitLengthLimbs<6>(pl); b-- > 0;) {
      acc = acc.Double();
      if (BitLimbs<6>(pl, b)) acc = acc + q;
    }
    return acc;
  };
  const G2 h = hostile::NonSubgroupG2();
  const G2 rh = h.ScalarMulCanonical(Fr::Modulus());
  for (const G2& q : {h, rh, h + G2Generator(), G2Generator()}) {
    G2 psi = q.Psi();
    // [t]psi(Q) with t = z + 1 = -(|z| - 1).
    G2 t_psi = -(psi.MulByAbsZ() - psi);
    EXPECT_TRUE((psi.Psi() - t_psi + mul_by_p(q)).IsInfinity());
  }
  // psi fixes infinity.
  EXPECT_TRUE(G2::Infinity().Psi().IsInfinity());
}

TEST(G1Test, AddInverseEdgeCases) {
  Rng rng(46);
  G1 a = G1Mul(rng.NextFr());
  EXPECT_TRUE((a + (-a)).IsInfinity());
  EXPECT_EQ(G1::Infinity() + a, a);
  EXPECT_TRUE(G1::Infinity().Double().IsInfinity());
}

}  // namespace
}  // namespace apqa::crypto
