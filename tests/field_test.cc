// Unit and property tests for the prime fields and the Fp2/Fp6/Fp12 tower.
#include <gtest/gtest.h>

#include "crypto/bigint.h"
#include "crypto/fp12.h"
#include "crypto/rng.h"

namespace apqa::crypto {
namespace {

Fp RandomFp(Rng* rng) {
  Limbs<6> l;
  rng->Fill(l.data(), sizeof(l));
  l[5] &= (u64{1} << 57) - 1;  // keep below 2^377 < p
  return Fp::FromCanonicalReduce(l);
}

Fp2 RandomFp2(Rng* rng) { return {RandomFp(rng), RandomFp(rng)}; }

Fp6 RandomFp6(Rng* rng) {
  return {RandomFp2(rng), RandomFp2(rng), RandomFp2(rng)};
}

Fp12 RandomFp12(Rng* rng) { return {RandomFp6(rng), RandomFp6(rng)}; }

TEST(BigIntTest, BasicArithmetic) {
  BigInt a(0xffffffffffffffffULL);
  BigInt b(2);
  BigInt c = a * b;
  EXPECT_EQ(c.ToHex(), "1fffffffffffffffe");
  EXPECT_EQ((c - a).ToHex(), "ffffffffffffffff");
  EXPECT_EQ((c / b).ToHex(), "ffffffffffffffff");
  EXPECT_TRUE((c % b).IsZero());
  EXPECT_EQ((c + BigInt(1)).ToHex(), "1ffffffffffffffff");
}

TEST(BigIntTest, DivModRandom) {
  Rng rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    u64 al[4], bl[2];
    rng.Fill(al, sizeof(al));
    rng.Fill(bl, sizeof(bl));
    BigInt a = BigInt::FromLimbs(al, 4);
    BigInt b = BigInt::FromLimbs(bl, 2);
    if (b.IsZero()) continue;
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_TRUE(r.Compare(b) < 0);
    EXPECT_TRUE(q * b + r == a);
  }
}

TEST(FieldConstantsTest, DerivedFromCurveParameter) {
  // BLS12 family: r = u^4 - u^2 + 1 and p = (u-1)^2 * r / 3 + u with
  // u = -0xd201000000010000. Guards against typos in the hardcoded limbs.
  BigInt u(kBlsParamAbs);
  BigInt u2 = u * u;
  BigInt r = u2 * u2 - u2 + BigInt(1);
  BigInt p = (u + BigInt(1)) * (u + BigInt(1)) * r / BigInt(3) - u;
  EXPECT_TRUE(r == BigInt::FromLimbs(FrTag::kModulus.data(), 4));
  EXPECT_TRUE(p == BigInt::FromLimbs(FpTag::kModulus.data(), 6));
}

TEST(FpTest, AdditiveGroup) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    Fp a = RandomFp(&rng), b = RandomFp(&rng), c = RandomFp(&rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a - a, Fp::Zero());
    EXPECT_EQ(a + Fp::Zero(), a);
    EXPECT_EQ(a + (-a), Fp::Zero());
  }
}

TEST(FpTest, MultiplicativeGroup) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    Fp a = RandomFp(&rng), b = RandomFp(&rng), c = RandomFp(&rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * Fp::One(), a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.Square(), a * a);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fp::One());
    }
  }
}

TEST(FpTest, AccelKernelBitmatchesPortable) {
  // The dispatched Montgomery multiply (BMI2/ADX kernel where the CPU has
  // it, or the portable CIOS under APQA_FORCE_PORTABLE) must be
  // bit-identical to the portable oracle on the internal representation,
  // not just equal as field elements. Runs meaningfully on both arms: with
  // the kernel active it is the differential test, forced-portable it
  // pins MulPortable == operator*.
  Rng rng(40);
  std::vector<Fp> edge = {Fp::Zero(), Fp::One(), -Fp::One(),
                          Fp::FromU64(2), Fp::FromCanonical([] {
                            Limbs<6> l = FpTag::kModulus;
                            l[0] -= 1;  // p - 1, p odd
                            return l;
                          }())};
  std::vector<Fp> vals = edge;
  for (int i = 0; i < 40; ++i) vals.push_back(RandomFp(&rng));
  for (const Fp& a : vals) {
    for (const Fp& b : vals) {
      Fp d = a * b;
      Fp p = Fp::MulPortable(a, b);
      ASSERT_EQ(d.MontgomeryRepr(), p.MontgomeryRepr());
    }
  }
  // Squaring and the paired multiply route through the same dispatch.
  for (const Fp& a : vals) {
    ASSERT_EQ(a.Square().MontgomeryRepr(),
              Fp::MulPortable(a, a).MontgomeryRepr());
  }
  Fp r1, r2;
  Fp::MulPair(vals[5], vals[6], vals[7], vals[8], &r1, &r2);
  EXPECT_EQ(r1.MontgomeryRepr(),
            Fp::MulPortable(vals[5], vals[6]).MontgomeryRepr());
  EXPECT_EQ(r2.MontgomeryRepr(),
            Fp::MulPortable(vals[7], vals[8]).MontgomeryRepr());
}

TEST(FpTest, AddSubKernelBitmatchesPortable) {
  // The dispatched + and - (asm kernels where MontAccelActive(), the
  // portable loops under APQA_FORCE_PORTABLE) must match AddPortable /
  // SubPortable on the Montgomery representation. The kernels act on raw
  // representations, so the edge values are representations: with
  // 0, 1, 2, p-1, p-2, (p-1)/2 and (p+1)/2 the pairs reach a raw sum of
  // exactly p, of 2p-2 (the largest), and differences of zero.
  const Limbs<6>& p = FpTag::kModulus;
  // `unit` has representation 1, so FromCanonical(l) * unit has
  // representation l * R * 1 * R^-1 = l.
  const Fp unit = Fp::FromCanonical(Fp::One().MontgomeryRepr()).Inverse();
  ASSERT_EQ(unit.MontgomeryRepr(), (Limbs<6>{1, 0, 0, 0, 0, 0}));
  auto from_repr = [&unit](const Limbs<6>& l) {
    Fp f = Fp::FromCanonical(l) * unit;
    EXPECT_EQ(f.MontgomeryRepr(), l);
    return f;
  };
  auto minus = [&p](u64 k) {
    Limbs<6> l = p;
    l[0] -= k;  // p is odd and its low limb is far above k
    return l;
  };
  Limbs<6> half_down = minus(1);  // (p-1)/2
  Shr1Limbs<6>(&half_down);
  Limbs<6> half_up = half_down;  // (p+1)/2
  half_up[0] += 1;
  std::vector<Fp> vals = {
      from_repr({0, 0, 0, 0, 0, 0}), from_repr({1, 0, 0, 0, 0, 0}),
      from_repr({2, 0, 0, 0, 0, 0}), from_repr(minus(1)),
      from_repr(minus(2)),           from_repr(half_down),
      from_repr(half_up),            Fp::One()};
  Rng rng(41);
  for (int i = 0; i < 40; ++i) vals.push_back(RandomFp(&rng));

  bool hit_p = false, hit_2p_minus_2 = false, hit_zero_diff = false;
  const Limbs<6> two_p_minus_2 = [&] {
    Limbs<6> l;
    AddLimbs<6>(minus(1), minus(1), &l);
    return l;
  }();
  for (const Fp& a : vals) {
    for (const Fp& b : vals) {
      ASSERT_EQ((a + b).MontgomeryRepr(),
                Fp::AddPortable(a, b).MontgomeryRepr());
      ASSERT_EQ((a - b).MontgomeryRepr(),
                Fp::SubPortable(a, b).MontgomeryRepr());
      Limbs<6> raw;
      AddLimbs<6>(a.MontgomeryRepr(), b.MontgomeryRepr(), &raw);
      hit_p |= raw == p;
      hit_2p_minus_2 |= raw == two_p_minus_2;
      hit_zero_diff |= a.MontgomeryRepr() == b.MontgomeryRepr();
    }
    ASSERT_EQ((-a).MontgomeryRepr(),
              Fp::SubPortable(Fp::Zero(), a).MontgomeryRepr());
    ASSERT_EQ(a.Double().MontgomeryRepr(),
              Fp::AddPortable(a, a).MontgomeryRepr());
  }
  EXPECT_TRUE(hit_p);
  EXPECT_TRUE(hit_2p_minus_2);
  EXPECT_TRUE(hit_zero_diff);
  // The edge results themselves, independent of either arm.
  EXPECT_TRUE((vals[5] + vals[6]).IsZero());                 // raw sum p
  EXPECT_EQ((vals[3] + vals[3]).MontgomeryRepr(), minus(2));  // 2p-2 - p
  EXPECT_EQ((vals[0] - vals[1]).MontgomeryRepr(), minus(1));  // 0 - 1
}

TEST(FpTest, FermatLittleTheorem) {
  // a^(p-1) == 1 for a != 0.
  Rng rng(3);
  Fp a = RandomFp(&rng);
  Limbs<6> pm1 = FpTag::kModulus;
  pm1[0] -= 1;  // p is odd, no borrow
  EXPECT_EQ(a.Pow(std::span<const u64>(pm1.data(), 6)), Fp::One());
}

TEST(FpTest, CanonicalRoundTrip) {
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    Fp a = RandomFp(&rng);
    EXPECT_EQ(Fp::FromCanonical(a.ToCanonical()), a);
  }
  EXPECT_EQ(Fp::FromU64(7) + Fp::FromU64(8), Fp::FromU64(15));
  EXPECT_EQ(Fp::FromU64(6) * Fp::FromU64(7), Fp::FromU64(42));
}

TEST(FrTest, FieldLaws) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    Fr a = rng.NextFr(), b = rng.NextFr();
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a + b, b + a);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fr::One());
    }
    EXPECT_EQ(a - b, -(b - a));
  }
}

TEST(Fp2Test, FieldLaws) {
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    Fp2 a = RandomFp2(&rng), b = RandomFp2(&rng), c = RandomFp2(&rng);
    EXPECT_EQ(a * (b * c), (a * b) * c);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.Square(), a * a);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fp2::One());
    }
  }
}

TEST(Fp2Test, IsQuadraticExtension) {
  // i^2 == -1.
  Fp2 i{Fp::Zero(), Fp::One()};
  Fp2 minus_one{-Fp::One(), Fp::Zero()};
  EXPECT_EQ(i * i, minus_one);
  // Conjugation is the p-power Frobenius: (a+bi)^p == a-bi.
  Rng rng(7);
  Fp2 a = RandomFp2(&rng);
  EXPECT_EQ(a.Pow(std::span<const u64>(FpTag::kModulus.data(), 6)),
            a.Conjugate());
}

TEST(Fp6Test, FieldLaws) {
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    Fp6 a = RandomFp6(&rng), b = RandomFp6(&rng), c = RandomFp6(&rng);
    EXPECT_EQ(a * (b * c), (a * b) * c);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fp6::One());
    }
  }
}

TEST(Fp6Test, VCubesToXi) {
  Fp6 v{Fp2::Zero(), Fp2::One(), Fp2::Zero()};
  Fp6 xi{Fp2::Xi(), Fp2::Zero(), Fp2::Zero()};
  EXPECT_EQ(v * v * v, xi);
  Rng rng(9);
  Fp6 a = RandomFp6(&rng);
  EXPECT_EQ(a.MulByV(), a * v);
}

TEST(Fp12Test, FieldLaws) {
  Rng rng(10);
  for (int i = 0; i < 10; ++i) {
    Fp12 a = RandomFp12(&rng), b = RandomFp12(&rng), c = RandomFp12(&rng);
    EXPECT_EQ(a * (b * c), (a * b) * c);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.Square(), a * a);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fp12::One());
    }
  }
}

TEST(Fp12Test, FrobeniusIsPPower) {
  Rng rng(11);
  Fp12 a = RandomFp12(&rng);
  EXPECT_EQ(a.Frobenius(),
            a.Pow(std::span<const u64>(FpTag::kModulus.data(), 6)));
}

TEST(Fp12Test, ConjugateIsP6Power) {
  Rng rng(12);
  Fp12 a = RandomFp12(&rng);
  Fp12 f = a;
  for (int i = 0; i < 6; ++i) f = f.Frobenius();
  EXPECT_EQ(f, a.Conjugate());
}

TEST(Fp12Test, PowMatchesRepeatedMul) {
  Rng rng(13);
  Fp12 a = RandomFp12(&rng);
  u64 e[1] = {23};
  Fp12 expect = Fp12::One();
  for (int i = 0; i < 23; ++i) expect = expect * a;
  EXPECT_EQ(a.Pow(std::span<const u64>(e, 1)), expect);
}

}  // namespace
}  // namespace apqa::crypto
