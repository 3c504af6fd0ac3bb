// Secret-taint and constant-time checks (crypto/ct.h).
//
// Four layers of assurance:
//
//   1. Compile-time: static detection idioms prove that the variable-time
//      scalar entry points (wNAF ScalarMul, FixedBaseTable::Mul, generator
//      G1Mul/G2Mul) reject SecretFr — the taint cannot reach a fast path
//      without an explicit Declassify().
//   2. Differential: the constant-time primitives (CtEqBytes, CtSelect*,
//      CtCondAssignObj) match naive semantics on adversarial edge cases,
//      and every constant-pattern ladder matches its variable-time twin on
//      edge scalars (0, 1, 2, r-1, lambda-1, lambda, lambda+1) and random
//      scalars, and the plain wNAF on scalars whose GLV halves drive every
//      signed (Booth) digit to its extremes. The eight-lane kernels behind
//      crypto::CtMulBatch must return the scalar ladders' results bit for
//      bit, in every lane and at every group size (CtLanes).
//   3. Trace equivalence (runs under any compiler): the ct_trace hook
//      records the ladder step sequence; distinct secrets must produce
//      byte-identical traces, all the way up through ABS.Sign, ABS.Relax
//      and CP-ABE KeyGen. A data-dependent skip, extra add, or reordering
//      fails the comparison.
//   4. MSan poisoning (clang + -DAPQA_SANITIZE=memory only): secret scalars
//      are poisoned as uninitialized memory; any secret-dependent branch or
//      table index inside the ladders aborts the test. Compiled out
//      elsewhere.
#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "abs/abs.h"
#include "cpabe/cpabe.h"
#include "crypto/ct.h"
#include "crypto/ct_batch.h"
#include "crypto/msm.h"
#include "crypto/serde.h"
#include "crypto/pairing.h"

namespace apqa {
namespace {

using crypto::CtCompleteAdd;
using crypto::CtCompleteDbl;
using crypto::CtCondAssignObj;
using crypto::CtEq;
using crypto::CtEqBytes;
using crypto::CtEqMask64;
using crypto::CtG1Mul;
using crypto::CtG2Mul;
using crypto::CtInverse;
using crypto::CtPoint;
using crypto::CtPow;
using crypto::CtScalarMul;
using crypto::CtSelectLimbs;
using crypto::CtSelectU64;
using crypto::Fp;
using crypto::Fp2;
using crypto::Fr;
using crypto::G1;
using crypto::G2;
using crypto::GT;
using crypto::Limbs;
using crypto::Rng;
using crypto::SecretFr;
using crypto::u64;

// --- 1. Compile-time taint enforcement --------------------------------------

template <typename P, typename K, typename = void>
struct CanScalarMul : std::false_type {};
template <typename P, typename K>
struct CanScalarMul<
    P, K,
    std::void_t<decltype(std::declval<const P&>().ScalarMul(
        std::declval<const K&>()))>> : std::true_type {};

template <typename T, typename K, typename = void>
struct CanTableMul : std::false_type {};
template <typename T, typename K>
struct CanTableMul<T, K,
                   std::void_t<decltype(std::declval<const T&>().Mul(
                       std::declval<const K&>()))>> : std::true_type {};

template <typename K, typename = void>
struct CanG1Mul : std::false_type {};
template <typename K>
struct CanG1Mul<K, std::void_t<decltype(crypto::G1Mul(
                       std::declval<const K&>()))>> : std::true_type {};

// Public scalars still flow everywhere...
static_assert(CanScalarMul<G1, Fr>::value);
static_assert(CanScalarMul<G2, Fr>::value);
static_assert(CanTableMul<crypto::FixedBaseTable<Fp>, Fr>::value);
static_assert(CanG1Mul<Fr>::value);
// ...but a SecretFr at a variable-time entry point is a compile error.
static_assert(!CanScalarMul<G1, SecretFr>::value);
static_assert(!CanScalarMul<G2, SecretFr>::value);
static_assert(!CanTableMul<crypto::FixedBaseTable<Fp>, SecretFr>::value);
static_assert(!CanTableMul<crypto::FixedBaseTable<Fp2>, SecretFr>::value);
static_assert(!CanG1Mul<SecretFr>::value);
// And the wrapper never converts back implicitly.
static_assert(!std::is_convertible_v<SecretFr, Fr>);
static_assert(!std::is_constructible_v<Fr, SecretFr>);

// --- 2a. Constant-time primitive differential tests -------------------------

TEST(CtPrimitives, EqBytesMatchesMemcmpOnEdgeCases) {
  constexpr std::size_t kN = 32;
  std::array<std::uint8_t, kN> base{}, other{};

  auto check = [&](const std::array<std::uint8_t, kN>& a,
                   const std::array<std::uint8_t, kN>& b) {
    EXPECT_EQ(CtEqBytes(a.data(), b.data(), kN),
              std::memcmp(a.data(), b.data(), kN) == 0);
    EXPECT_EQ(CtEq(a, b), std::memcmp(a.data(), b.data(), kN) == 0);
  };

  // All-zero vs all-zero, all-ones vs all-ones, zero vs ones.
  check(base, other);
  base.fill(0xff);
  other.fill(0xff);
  check(base, other);
  other.fill(0x00);
  check(base, other);

  // Single-bit differences at both extremes of the buffer.
  base.fill(0x00);
  other.fill(0x00);
  other[0] = 0x01;  // lowest bit of first byte
  check(base, other);
  other[0] = 0x00;
  other[kN - 1] = 0x80;  // highest bit of last byte
  check(base, other);

  // Difference only in the middle.
  other[kN - 1] = 0x00;
  other[kN / 2] = 0x10;
  check(base, other);
}

TEST(CtPrimitives, SelectAndCondAssignMatchNaive) {
  const u64 kOnes = ~u64{0};
  EXPECT_EQ(CtSelectU64(kOnes, 7, 9), u64{7});
  EXPECT_EQ(CtSelectU64(0, 7, 9), u64{9});
  EXPECT_EQ(CtEqMask64(0, 0), kOnes);
  EXPECT_EQ(CtEqMask64(~u64{0}, ~u64{0}), kOnes);
  EXPECT_EQ(CtEqMask64(1, 2), u64{0});
  EXPECT_EQ(CtEqMask64(u64{1} << 63, 0), u64{0});

  Limbs<4> a{1, 2, 3, 4}, b{5, 6, 7, 8}, r{};
  CtSelectLimbs<4>(kOnes, a, b, &r);
  EXPECT_EQ(r, a);
  CtSelectLimbs<4>(0, a, b, &r);
  EXPECT_EQ(r, b);
  // Aliasing: output may be one of the inputs.
  r = a;
  CtSelectLimbs<4>(0, r, b, &r);
  EXPECT_EQ(r, b);

  Fr x = Fr::FromU64(42), y = Fr::FromU64(1337);
  Fr z = x;
  CtCondAssignObj(&z, y, 0);
  EXPECT_EQ(z, x);
  CtCondAssignObj(&z, y, kOnes);
  EXPECT_EQ(z, y);
}

TEST(CtPrimitives, FieldComparisonsStillCorrect) {
  // The branch-free IsZero/== rewrites in prime_field.h must keep exact
  // semantics.
  EXPECT_TRUE(Fr::Zero().IsZero());
  EXPECT_FALSE(Fr::One().IsZero());
  EXPECT_TRUE(Fr::One() == Fr::FromU64(1));
  EXPECT_FALSE(Fr::One() == Fr::Zero());
  Fr r_minus_1 = Fr::Zero() - Fr::One();
  EXPECT_TRUE(r_minus_1 + Fr::One() == Fr::Zero());
}

// --- 2b. Ladder vs variable-time differential -------------------------------

// Edge scalars for both ladder shapes: the field ends (0, 1, 2, r - 1) and
// the GLV split boundary, where k2 turns 0 -> 1 and k1 wraps to 0
// (lambda - 1, lambda, lambda + 1).
std::vector<Fr> EdgeAndRandomScalars() {
  Rng rng(0x5ec7e7);
  const Fr lambda = Fr::FromCanonical(crypto::GlvLambda());
  std::vector<Fr> ks = {Fr::Zero(),          Fr::One(),
                        Fr::FromU64(2),      Fr::Zero() - Fr::One(),
                        lambda - Fr::One(),  lambda,
                        lambda + Fr::One()};
  for (int i = 0; i < 6; ++i) ks.push_back(rng.NextFr());
  return ks;
}

TEST(CtKernels, FixedBaseMulCtMatchesVariableTimeMul) {
  const auto& g1_tab = crypto::G1GeneratorTable();
  const auto& g2_tab = crypto::G2GeneratorTable();
  for (const Fr& k : EdgeAndRandomScalars()) {
    EXPECT_EQ(g1_tab.MulCt(SecretFr(k)), g1_tab.Mul(k));
    EXPECT_EQ(g2_tab.MulCt(SecretFr(k)), g2_tab.Mul(k));
  }
}

TEST(CtKernels, VariableBaseCtScalarMulMatchesWnaf) {
  Rng rng(0xba5e);
  G1 p1 = crypto::G1Mul(rng.NextNonZeroFr());
  G2 p2 = crypto::G2Mul(rng.NextNonZeroFr());
  for (const Fr& k : EdgeAndRandomScalars()) {
    EXPECT_EQ(CtScalarMul(p1, SecretFr(k)), p1.ScalarMul(k));
    EXPECT_EQ(CtScalarMul(p2, SecretFr(k)), p2.ScalarMul(k));
  }
  // Identity base: k * O == O for every k.
  EXPECT_TRUE(CtScalarMul(G1::Infinity(), SecretFr(Fr::FromU64(5)))
                  .IsInfinity());
}

// A 127-bit GLV half (below lambda ~ 2^127.4) whose signed radix-2^W
// digits alternate between the two Booth extremes: windows read
// 1 0...0 (digit -2^(W-1) after a carry-in of 0) and 0 1...1 (digit
// +2^(W-1) after a carry-in of 1). `negative_first` picks which extreme
// window 0 gets (window 0 has no carry-in, so it reads 2^(W-1) - 1 on the
// other phase).
Limbs<4> BoothExtremeHalf(unsigned width, bool negative_first) {
  Limbs<4> e{};
  for (unsigned w = 0; width * w < 127; ++w) {
    const bool negative = (w % 2 == 0) == negative_first;
    const u64 bits = negative ? u64{1} << (width - 1)
                              : (u64{1} << (width - 1)) - 1;
    for (unsigned b = 0; b < width; ++b) {
      const unsigned pos = width * w + b;
      if (pos < 127 && ((bits >> b) & 1)) e[pos / 64] |= u64{1} << (pos % 64);
    }
  }
  return e;
}

// k1 + k2 * lambda for halves below lambda: GlvSplitLimbs returns exactly
// (k1, k2) for it.
Fr FromGlvHalves(const Limbs<4>& k1, const Limbs<4>& k2) {
  return Fr::FromCanonical(k1) +
         Fr::FromCanonical(k2) * Fr::FromCanonical(crypto::GlvLambda());
}

// The edge scalars above plus scalars whose GLV halves hit every Booth
// extreme of both ladder widths (radix 2^5 variable-base, 2^6 fixed-base),
// on either half or both, and the largest halves: lambda - 1 and
// 2^127 - 1. (2^128 - 1 is not a GLV half of any reduced scalar; the
// digit reconstruction test below covers it.)
std::vector<Fr> BoothEdgeScalars() {
  std::vector<Fr> ks = EdgeAndRandomScalars();
  const Limbs<4> zero{};
  for (unsigned width : {5u, 6u}) {
    for (bool negative_first : {false, true}) {
      const Limbs<4> h = BoothExtremeHalf(width, negative_first);
      const Limbs<4> other = BoothExtremeHalf(width, !negative_first);
      ks.push_back(FromGlvHalves(h, zero));
      ks.push_back(FromGlvHalves(zero, h));
      ks.push_back(FromGlvHalves(h, other));
    }
  }
  Limbs<4> lambda_minus_1 = crypto::GlvLambda();
  lambda_minus_1[0] -= 1;  // lambda's low limb is nonzero
  const Limbs<4> ones127 = {~u64{0}, ~u64{0} >> 1, 0, 0};
  ks.push_back(FromGlvHalves(lambda_minus_1, lambda_minus_1));
  ks.push_back(FromGlvHalves(ones127, ones127));
  ks.push_back(FromGlvHalves(ones127, zero));
  return ks;
}

// sum_w digit_w 2^(W w) over `windows` signed digits, reduced mod r (exact
// for the sub-2^128 inputs below). Also checks every digit's range.
template <unsigned W>
Fr BoothReconstruct(const Limbs<4>& e, unsigned windows) {
  Fr acc = Fr::Zero(), radix_pow = Fr::One();
  const Fr radix = Fr::FromU64(u64{1} << W);
  for (unsigned w = 0; w < windows; ++w) {
    const crypto::BoothDigit d = crypto::CtBoothDigit<W>(e, w);
    EXPECT_LE(d.mag, u64{1} << (W - 1));
    EXPECT_TRUE(d.neg == 0 || d.neg == ~u64{0});
    const Fr term = Fr::FromU64(d.mag) * radix_pow;
    acc = d.neg != 0 ? acc - term : acc + term;
    radix_pow = radix_pow * radix;
  }
  return acc;
}

TEST(CtKernels, BoothDigitsReconstructHalves) {
  Rng rng(0xb007);
  std::vector<Limbs<4>> halves = {
      Limbs<4>{},
      Limbs<4>{1, 0, 0, 0},
      Limbs<4>{~u64{0}, ~u64{0}, 0, 0},  // 2^128 - 1
      Limbs<4>{~u64{0}, ~u64{0} >> 1, 0, 0},
      crypto::GlvLambda(),
      BoothExtremeHalf(5, false), BoothExtremeHalf(5, true),
      BoothExtremeHalf(6, false), BoothExtremeHalf(6, true)};
  for (int i = 0; i < 8; ++i) halves.push_back({rng.NextU64(), rng.NextU64()});
  for (const Limbs<4>& h : halves) {
    const Fr want = Fr::FromCanonical(h);
    EXPECT_EQ(BoothReconstruct<5>(h, 26), want);
    EXPECT_EQ(BoothReconstruct<6>(h, 22), want);
    // The top window of each ladder never reads a negative digit.
    EXPECT_EQ(crypto::CtBoothDigit<5>(h, 25).neg, u64{0});
    EXPECT_EQ(crypto::CtBoothDigit<6>(h, 21).neg, u64{0});
  }
}

// BoothEdgeScalars really drives each ladder's digits to +-2^(W-1) in every
// window that lies wholly below bit 127 (window 0 can only reach the
// negative extreme: it has no carry-in).
template <unsigned W>
void ExpectBoothExtremesCovered(unsigned windows) {
  std::vector<bool> plus(windows, false), minus(windows, false);
  for (const Fr& k : BoothEdgeScalars()) {
    const crypto::GlvDecomp kd = crypto::GlvSplitLimbs(k.ToCanonical());
    for (const Limbs<4>* h : {&kd.k1, &kd.k2}) {
      for (unsigned w = 0; w < windows; ++w) {
        const crypto::BoothDigit d = crypto::CtBoothDigit<W>(*h, w);
        if (d.mag != (u64{1} << (W - 1))) continue;
        (d.neg != 0 ? minus : plus)[w] = true;
      }
    }
  }
  for (unsigned w = 0; W * (w + 1) <= 127; ++w) {
    EXPECT_TRUE(minus[w]) << "W=" << W << " window " << w;
    if (w > 0) {
      EXPECT_TRUE(plus[w]) << "W=" << W << " window " << w;
    }
  }
}

TEST(CtKernels, BoothEdgeScalarsHitEveryDigitExtreme) {
  ExpectBoothExtremesCovered<5>(26);
  ExpectBoothExtremesCovered<6>(22);
}

// Every ladder — MulCt and Mul on a fixed-base table, CtScalarMul — against
// the plain wNAF ScalarMulCanonical (no GLV, no table) on both groups, for
// the Booth edge scalars, on the generator tables and on a table for a
// random base; a table over the point at infinity yields infinity.
template <typename F>
void ExpectLaddersMatchCanonical(const crypto::CurvePoint<F>& base,
                                 const crypto::FixedBaseTable<F>& tab) {
  for (const Fr& k : BoothEdgeScalars()) {
    const crypto::CurvePoint<F> want = base.ScalarMulCanonical(k.ToCanonical());
    EXPECT_EQ(tab.MulCt(SecretFr(k)), want);
    EXPECT_EQ(tab.Mul(k), want);
    EXPECT_EQ(CtScalarMul(base, SecretFr(k)), want);
  }
}

TEST(CtKernels, LaddersMatchCanonicalOnBoothEdgeScalars) {
  Rng rng(0xed9e);
  ExpectLaddersMatchCanonical(crypto::G1Generator(),
                              crypto::G1GeneratorTable());
  ExpectLaddersMatchCanonical(crypto::G2Generator(),
                              crypto::G2GeneratorTable());
  const G1 p1 = crypto::G1Mul(rng.NextNonZeroFr());
  const G2 p2 = crypto::G2Mul(rng.NextNonZeroFr());
  ExpectLaddersMatchCanonical(p1, crypto::FixedBaseTable<Fp>(p1));
  ExpectLaddersMatchCanonical(p2, crypto::FixedBaseTable<Fp2>(p2));

  const crypto::FixedBaseTable<Fp> inf1(G1::Infinity());
  const crypto::FixedBaseTable<Fp2> inf2(G2::Infinity());
  for (const Fr& k : {Fr::Zero(), Fr::One(), rng.NextFr()}) {
    EXPECT_TRUE(inf1.MulCt(SecretFr(k)).IsInfinity());
    EXPECT_TRUE(inf1.Mul(k).IsInfinity());
    EXPECT_TRUE(inf2.MulCt(SecretFr(k)).IsInfinity());
    EXPECT_TRUE(inf2.Mul(k).IsInfinity());
    EXPECT_TRUE(CtScalarMul(G2::Infinity(), SecretFr(k)).IsInfinity());
  }
}

// The addition-chain 3b multiply equals the field multiply by 3 * b.
TEST(CtKernels, MulBy3bMatchesFieldMultiply) {
  Rng rng(0x3b);
  const Fp b1 = crypto::G1CurveB();
  const Fp2 b2 = crypto::G2CurveB();
  const Fp b3_1 = b1 + b1 + b1;
  const Fp2 b3_2 = b2 + b2 + b2;
  for (int i = 0; i < 4; ++i) {
    const Fp x = crypto::G1Mul(rng.NextNonZeroFr()).x;
    const Fp2 y = crypto::G2Mul(rng.NextNonZeroFr()).y;
    EXPECT_EQ(crypto::MulBy3b(x), b3_1 * x);
    EXPECT_EQ(crypto::MulBy3b(y), b3_2 * y);
  }
  EXPECT_TRUE(crypto::MulBy3b(Fp::Zero()).IsZero());
  EXPECT_EQ(crypto::MulBy3b(Fp2::One()), b3_2);
}

// Alg. 8 mixed addition agrees with Alg. 7 on an affine second operand,
// including the doubling case, an inverse pair and an identity first
// operand.
TEST(CtKernels, CompleteMixedAdditionMatchesFullAddition) {
  Rng rng(0x8a);
  const G1 p = crypto::G1Mul(rng.NextNonZeroFr());
  G1 q = crypto::G1Mul(rng.NextNonZeroFr());
  Fp qx, qy;
  q.ToAffine(&qx, &qy);
  const CtPoint<Fp> cq = {qx, qy, Fp::One()};
  for (const CtPoint<Fp>& a :
       {crypto::CtFromJacobian(p), CtPoint<Fp>::Identity(), cq,
        CtPoint<Fp>{qx, -qy, Fp::One()}}) {
    EXPECT_EQ(crypto::CtToJacobian(crypto::CtCompleteAddMixed(a, qx, qy)),
              crypto::CtToJacobian(CtCompleteAdd(a, cq)));
  }
  EXPECT_TRUE(crypto::CtToJacobian(crypto::CtCompleteAddMixed(
                                       CtPoint<Fp>{qx, -qy, Fp::One()}, qx, qy))
                  .IsInfinity());
}

TEST(CtKernels, GeneratorCtMulsMatch) {
  for (const Fr& k : EdgeAndRandomScalars()) {
    EXPECT_EQ(CtG1Mul(SecretFr(k)), crypto::G1Mul(k));
    EXPECT_EQ(CtG2Mul(SecretFr(k)), crypto::G2Mul(k));
  }
}

TEST(CtKernels, CtPowMatchesVariableTimePow) {
  Rng rng(0x6e57);
  GT base = crypto::Pairing(crypto::G1Mul(rng.NextNonZeroFr()),
                            crypto::G2Mul(rng.NextNonZeroFr()));
  for (const Fr& k : EdgeAndRandomScalars()) {
    Limbs<4> e = k.ToCanonical();
    GT expected = base.Pow(std::span<const u64>(e.data(), 4));
    EXPECT_EQ(CtPow(base, SecretFr(k)), expected);
  }
}

TEST(CtKernels, CtInverseMatchesEgcdInverse) {
  Rng rng(0x111e);
  for (const Fr& k : EdgeAndRandomScalars()) {
    // declassify: test-only comparison of a public differential result
    EXPECT_EQ(CtInverse(SecretFr(k)).Declassify(), k.Inverse());
  }
  EXPECT_TRUE(CtInverse(SecretFr(Fr::Zero())).Declassify().IsZero());
  Fr k = rng.NextNonZeroFr();
  // declassify: test-only check that k * k^-1 == 1
  EXPECT_EQ(CtInverse(SecretFr(k)).Declassify() * k, Fr::One());
}

TEST(CtKernels, CompleteAdditionHandlesExceptionalInputs) {
  Rng rng(0xadd);
  G1 p = crypto::G1Mul(rng.NextNonZeroFr());
  CtPoint<Fp> cp = crypto::CtFromJacobian(p);
  CtPoint<Fp> id = CtPoint<Fp>::Identity();

  // P + P (the doubling case that breaks incomplete formulas).
  EXPECT_EQ(crypto::CtToJacobian(CtCompleteAdd(cp, cp)), p.Double());
  // P + (-P) = O.
  CtPoint<Fp> neg = {cp.x, -cp.y, cp.z};
  EXPECT_TRUE(crypto::CtToJacobian(CtCompleteAdd(cp, neg)).IsInfinity());
  // P + O = P, O + P = P, O + O = O.
  EXPECT_EQ(crypto::CtToJacobian(CtCompleteAdd(cp, id)), p);
  EXPECT_EQ(crypto::CtToJacobian(CtCompleteAdd(id, cp)), p);
  EXPECT_TRUE(crypto::CtToJacobian(CtCompleteAdd(id, id)).IsInfinity());
}

// Alg. 9 doubling must agree with the complete addition P + P and with the
// Jacobian doubling, including on the identity.
template <typename F>
void ExpectCompleteDblMatches(const crypto::CurvePoint<F>& p) {
  CtPoint<F> cp = crypto::CtFromJacobian(p);
  const crypto::CurvePoint<F> dbl = crypto::CtToJacobian(CtCompleteDbl(cp));
  EXPECT_EQ(dbl, crypto::CtToJacobian(CtCompleteAdd(cp, cp)));
  EXPECT_EQ(dbl, p.Double());
}

TEST(CtKernels, CompleteDoublingMatchesAdditionAndJacobian) {
  Rng rng(0xdb1);
  ExpectCompleteDblMatches(G1::Infinity());
  ExpectCompleteDblMatches(G2::Infinity());
  for (int i = 0; i < 4; ++i) {
    ExpectCompleteDblMatches(crypto::G1Mul(rng.NextNonZeroFr()));
    ExpectCompleteDblMatches(crypto::G2Mul(rng.NextNonZeroFr()));
  }
}

TEST(CtKernels, SecretArithmeticMatchesPlain) {
  Rng rng(0xa51);
  Fr a = rng.NextFr(), b = rng.NextFr();
  SecretFr sa(a), sb(b);
  // declassify: test-only differential checks of wrapper arithmetic
  EXPECT_EQ((sa + sb).Declassify(), a + b);
  EXPECT_EQ((sa - sb).Declassify(), a - b);
  EXPECT_EQ((sa * sb).Declassify(), a * b);
  EXPECT_EQ((sa * b).Declassify(), a * b);
  EXPECT_EQ((b * sa).Declassify(), b * a);
  EXPECT_EQ((-sa).Declassify(), -a);
}

TEST(CtKernels, SecretRngDrawsMatchPlainStream) {
  Rng plain(99), secret(99);
  for (int i = 0; i < 8; ++i) {
    // declassify: test-only check that the taint-typed draws consume the
    // identical ChaCha stream
    EXPECT_EQ(secret.NextSecretFr().Declassify(), plain.NextFr());
  }
  Rng plain2(7), secret2(7);
  for (int i = 0; i < 8; ++i) {
    // declassify: as above, for the non-zero variant
    EXPECT_EQ(secret2.NextNonZeroSecretFr().Declassify(),
              plain2.NextNonZeroFr());
  }
}

// --- 3. Trace-equivalence oracle --------------------------------------------

std::vector<std::pair<char, unsigned>>& Trace() {
  static std::vector<std::pair<char, unsigned>> t;
  return t;
}

void RecordTrace(char op, unsigned step) { Trace().emplace_back(op, step); }

struct TraceCapture {
  TraceCapture() {
    Trace().clear();
    crypto::ct_trace::hook = &RecordTrace;
  }
  ~TraceCapture() { crypto::ct_trace::hook = nullptr; }
  std::vector<std::pair<char, unsigned>> Take() {
    auto t = std::move(Trace());
    Trace().clear();
    return t;
  }
};

TEST(CtTrace, FixedBaseLadderTraceIsScalarIndependent) {
  TraceCapture cap;
  const auto& tab = crypto::G1GeneratorTable();
  std::vector<std::pair<char, unsigned>> reference;
  bool first = true;
  for (const Fr& k : EdgeAndRandomScalars()) {
    // discard-ok: the trace capture observes the access pattern; the
    // product itself is irrelevant here.
    (void)tab.MulCt(SecretFr(k));
    auto t = cap.Take();
    EXPECT_FALSE(t.empty());
    if (first) {
      reference = std::move(t);
      first = false;
    } else {
      EXPECT_EQ(t, reference) << "fixed-base ladder trace depends on scalar";
    }
  }
}

// The GLV fixed-base walk must touch both mini-scalar tracks in every
// signed radix-2^6 window in a fixed order: ('T', w) then ('U', w) for
// w = 0..21. Pinning the exact shape (not just scalar-independence) catches
// a refactor that, say, skips the endomorphism track when k2 == 0 — which
// would leak the magnitude of the secret scalar.
TEST(CtTrace, FixedBaseGlvTraceCoversBothTracksEveryWindow) {
  TraceCapture cap;
  const auto& tab = crypto::G1GeneratorTable();
  // discard-ok: the trace capture observes the access pattern; the
  // product itself is irrelevant here.
  (void)tab.MulCt(SecretFr(Fr::Zero()));
  auto t = cap.Take();
  ASSERT_EQ(t.size(), 44u);
  for (unsigned w = 0; w < 22; ++w) {
    EXPECT_EQ(t[2 * w], std::make_pair('T', w));
    EXPECT_EQ(t[2 * w + 1], std::make_pair('U', w));
  }
}

TEST(CtTrace, VariableBaseLadderTraceIsScalarIndependent) {
  TraceCapture cap;
  Rng rng(0x7ace);
  G1 p = crypto::G1Mul(rng.NextNonZeroFr());
  std::vector<std::pair<char, unsigned>> reference;
  bool first = true;
  for (const Fr& k : EdgeAndRandomScalars()) {
    // discard-ok: the trace capture observes the access pattern; the
    // product itself is irrelevant here.
    (void)CtScalarMul(p, SecretFr(k));
    auto t = cap.Take();
    EXPECT_FALSE(t.empty());
    if (first) {
      reference = std::move(t);
      first = false;
    } else {
      EXPECT_EQ(t, reference) << "variable-base ladder trace depends on scalar";
    }
  }
}

// The variable-base GLV ladder shares one doubling chain between the two
// tracks: five doublings per signed radix-2^5 window except the top one,
// then the k1 pick ('T', w) and the phi(k2) pick ('U', w), for w = 25..0 —
// 125 doublings and 52 additions for every scalar, on both groups. Pinning
// the exact shape catches a refactor that skips a track or a leading zero
// window.
std::vector<std::pair<char, unsigned>> ExpectedGlvLadderTrace() {
  std::vector<std::pair<char, unsigned>> t;
  for (unsigned w = 26; w-- > 0;) {
    if (w != 25) t.insert(t.end(), 5, std::make_pair('D', w));
    t.emplace_back('T', w);
    t.emplace_back('U', w);
  }
  return t;
}

TEST(CtTrace, VariableBaseGlvTraceCoversBothTracksEveryWindow) {
  TraceCapture cap;
  Rng rng(0x61f);
  G1 p1 = crypto::G1Mul(rng.NextNonZeroFr());
  G2 p2 = crypto::G2Mul(rng.NextNonZeroFr());
  const auto expected = ExpectedGlvLadderTrace();
  ASSERT_EQ(expected.size(), 25u * 5 + 52);
  for (const Fr& k : EdgeAndRandomScalars()) {
    // discard-ok: the trace capture observes the access pattern; the
    // product itself is irrelevant here.
    (void)CtScalarMul(p1, SecretFr(k));
    EXPECT_EQ(cap.Take(), expected) << "G1 ladder shape depends on scalar";
    // discard-ok: as above, on G2.
    (void)CtScalarMul(p2, SecretFr(k));
    EXPECT_EQ(cap.Take(), expected) << "G2 ladder shape depends on scalar";
  }
}

TEST(CtTrace, GtPowTraceIsExponentIndependent) {
  TraceCapture cap;
  Rng rng(0x9077);
  GT base = crypto::Pairing(crypto::G1Mul(rng.NextNonZeroFr()),
                            crypto::G2Mul(rng.NextNonZeroFr()));
  std::vector<std::pair<char, unsigned>> reference;
  bool first = true;
  for (const Fr& k : EdgeAndRandomScalars()) {
    // discard-ok: the trace capture observes the access pattern; the
    // power itself is irrelevant here.
    (void)CtPow(base, SecretFr(k));
    auto t = cap.Take();
    EXPECT_EQ(t.size(), 255u);
    if (first) {
      reference = std::move(t);
      first = false;
    } else {
      EXPECT_EQ(t, reference) << "GT ladder trace depends on exponent";
    }
  }
}

// End-to-end: two independently keyed signers producing a signature over
// the same predicate/attribute structure must drive the ladders
// identically — only key material and blinding scalars differ between the
// runs, so any trace divergence is a secret-dependent pattern. The second
// predicate spans several MSP columns with -1 entries, so the per-column
// G2 fold (secret alpha_j / beta_j sums) is on the traced path too.
TEST(CtTrace, AbsSignTraceIsKeyAndBlindingIndependent) {
  using abs::Abs;
  struct Case {
    policy::Policy pred;
    policy::RoleSet roles;
  };
  const std::vector<Case> cases = {
      {policy::Policy::Parse("(doctor & cardiology) | admin"),
       {"doctor", "cardiology"}},
      {policy::Policy::Parse("(doctor & cardiology & nurse) | "
                             "(cardiology & admin) | (doctor & nurse)"),
       {"doctor", "cardiology", "nurse"}},
  };
  ASSERT_GE(policy::BuildMsp(cases[1].pred).Cols(), 3u);
  const std::vector<std::uint8_t> msg = {1, 2, 3};

  for (const Case& c : cases) {
    SCOPED_TRACE(c.pred.ToString());
    auto trace_one_signer = [&](u64 seed) {
      Rng rng(seed);
      abs::MasterKey msk;
      abs::VerifyKey mvk;
      Abs::Setup(&rng, &msk, &mvk);
      abs::SigningKey sk = Abs::KeyGen(msk, c.roles, &rng);
      TraceCapture cap;
      auto sig = Abs::Sign(mvk, sk, msg, c.pred, &rng);
      EXPECT_TRUE(sig.has_value());
      return cap.Take();
    };

    auto t1 = trace_one_signer(101);
    auto t2 = trace_one_signer(20202);
    EXPECT_FALSE(t1.empty());
    EXPECT_EQ(t1, t2) << "ABS.Sign ladder trace depends on key material";
  }
}

// ABS.Relax on a fixed (predicate, relax_to) with both merged rows (RoleA,
// duplicated in the predicate) and fresh rows (Role0, RoleB, RoleC): only
// the signing and relaxation randomness differ between the runs, so the
// ladder sequence must not.
TEST(CtTrace, AbsRelaxTraceIsBlindingIndependent) {
  using abs::Abs;
  const policy::Policy pred =
      policy::Policy::Parse("(RoleA & RoleB) | (RoleA & RoleC)");
  const policy::RoleSet relax_to = {"Role0", "RoleA", "RoleB", "RoleC"};
  const std::vector<std::uint8_t> msg = {4, 5, 6};
  Rng setup_rng(0x5e7);
  abs::MasterKey msk;
  abs::VerifyKey mvk;
  Abs::Setup(&setup_rng, &msk, &mvk);
  abs::SigningKey sk = Abs::KeyGen(msk, {"RoleA", "RoleB"}, &setup_rng);

  auto trace_one = [&](u64 seed) {
    Rng rng(seed);
    auto sig = Abs::Sign(mvk, sk, msg, pred, &rng);
    EXPECT_TRUE(sig.has_value());
    TraceCapture cap;
    auto aps = Abs::Relax(mvk, *sig, pred, msg, relax_to, &rng);
    EXPECT_TRUE(aps.has_value());
    return cap.Take();
  };
  auto t1 = trace_one(606);
  auto t2 = trace_one(70707);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2) << "ABS.Relax ladder trace depends on blinding scalars";
}

TEST(CtTrace, CpabeKeyGenTraceIsKeyIndependent) {
  using cpabe::CpAbe;
  const policy::RoleSet attrs = {"doctor", "nurse"};
  auto trace_one = [&](u64 seed) {
    Rng rng(seed);
    cpabe::MasterKey mk;
    cpabe::PublicKey pk;
    CpAbe::Setup(&rng, &mk, &pk);
    TraceCapture cap;
    // discard-ok: the trace capture observes KeyGen's operation sequence;
    // the key itself is irrelevant here.
    (void)CpAbe::KeyGen(mk, pk, attrs, &rng);
    return cap.Take();
  };
  auto t1 = trace_one(31337);
  auto t2 = trace_one(4242);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2) << "CP-ABE KeyGen ladder trace depends on key material";
}

// --- Eight-lane constant-pattern kernels (crypto/ct_batch.h) ---------------

// The Fp parts of v in Montgomery form, 6 words each.
std::vector<u64> Repr(const Fp& v) {
  return {v.MontgomeryRepr().begin(), v.MontgomeryRepr().end()};
}

std::vector<u64> Repr(const Fp2& v) {
  std::vector<u64> r = Repr(v.c0);
  const std::vector<u64> c1 = Repr(v.c1);
  r.insert(r.end(), c1.begin(), c1.end());
  return r;
}

// Same Montgomery representation in every coordinate: the lane kernels
// compute the scalar ladders' field elements, so not just the group
// element but the projective coordinates must agree.
template <typename F>
void ExpectSameBits(const crypto::CurvePoint<F>& got,
                    const crypto::CurvePoint<F>& want, const char* what) {
  EXPECT_TRUE(Repr(got.x) == Repr(want.x) && Repr(got.y) == Repr(want.y) &&
              Repr(got.z) == Repr(want.z))
      << what;
}

// The digit streams of lanes 0..7 in the layout of the lane kernels.
template <unsigned W>
void LaneDigits(const std::vector<Fr>& ks, unsigned windows,
                std::vector<u64>* mag, std::vector<u64>* neg) {
  mag->assign(2 * windows * 8, 0);
  neg->assign(2 * windows * 8, 0);
  for (std::size_t lane = 0; lane < 8; ++lane) {
    const Fr& k = ks[lane < ks.size() ? lane : 0];
    const crypto::GlvDecomp kd = crypto::GlvSplitLimbs(k.ToCanonical());
    for (unsigned w = 0; w < windows; ++w) {
      const crypto::BoothDigit d1 = crypto::CtBoothDigit<W>(kd.k1, w);
      const crypto::BoothDigit d2 = crypto::CtBoothDigit<W>(kd.k2, w);
      (*mag)[2 * w * 8 + lane] = d1.mag;
      (*neg)[2 * w * 8 + lane] = d1.neg;
      (*mag)[(2 * w + 1) * 8 + lane] = d2.mag;
      (*neg)[(2 * w + 1) * 8 + lane] = d2.neg;
    }
  }
}

// The kernels of each group, and its coordinates in their point layout.
template <typename F>
struct Lane;

template <>
struct Lane<Fp> {
  using Point = crypto::accel::G1LanePoint;
  static constexpr auto kLadder = &crypto::accel::G1CtLadderX8;
  static constexpr auto kFixedBase = &crypto::accel::G1CtFixedBaseX8;
  static G1 RandomPoint(Rng* rng) { return crypto::G1Mul(rng->NextNonZeroFr()); }
};

template <>
struct Lane<Fp2> {
  using Point = crypto::accel::G2LanePoint;
  static constexpr auto kLadder = &crypto::accel::G2CtLadderX8;
  static constexpr auto kFixedBase = &crypto::accel::G2CtFixedBaseX8;
  static G2 RandomPoint(Rng* rng) { return crypto::G2Mul(rng->NextNonZeroFr()); }
};

template <typename F>
void ToLane(const CtPoint<F>& p, typename Lane<F>::Point* out) {
  const auto put = [](const F& v, u64* words) {
    const std::vector<u64> r = Repr(v);
    std::copy(r.begin(), r.end(), words);
  };
  put(p.x, out->x);
  put(p.y, out->y);
  put(p.z, out->z);
}

void FromWords(const u64* v, Fp* out) {
  Limbs<6> l;
  std::copy_n(v, 6, l.begin());
  *out = Fp::FromMontgomeryRepr(l);
}

void FromWords(const u64* v, Fp2* out) {
  FromWords(v, &out->c0);
  FromWords(v + 6, &out->c1);
}

template <typename F>
crypto::CurvePoint<F> FromLane(const typename Lane<F>::Point& p) {
  CtPoint<F> q;
  FromWords(p.x, &q.x);
  FromWords(p.y, &q.y);
  FromWords(p.z, &q.z);
  return crypto::CtToJacobian(q);
}

// Every edge scalar (0, 1, r - 1, lambda - 1, lambda, lambda + 1 and the
// Booth extremes of both ladder widths) in every lane position, through
// the kernels of one group at every lane count 1..8, with an identity base
// in one lane.
template <typename F>
void CheckKernelsInEveryLane(Rng* rng) {
  using P = crypto::CurvePoint<F>;
  const std::vector<Fr> edge = BoothEdgeScalars();
  std::vector<P> bases;
  for (int i = 0; i < 8; ++i) bases.push_back(Lane<F>::RandomPoint(rng));
  bases[3] = P::Infinity();  // an identity base is a lane like any other
  const crypto::FixedBaseTable<F> tab(Lane<F>::RandomPoint(rng));
  const crypto::accel::LaneConsts& c = crypto::LaneConstants();
  for (int n = 1; n <= 8; ++n) {
    for (std::size_t rot = 0; rot < edge.size(); rot += (n == 8 ? 1 : 5)) {
      std::vector<Fr> ks;
      for (int i = 0; i < n; ++i) ks.push_back(edge[(rot + i) % edge.size()]);
      std::vector<u64> mag, neg;
      typename Lane<F>::Point in[8], out[8];
      for (int i = 0; i < n; ++i) {
        ToLane(crypto::CtFromJacobian(bases[i]), &in[i]);
      }
      LaneDigits<5>(ks, 26, &mag, &neg);
      Lane<F>::kLadder(c, in, mag.data(), neg.data(), n, out, nullptr);
      for (int i = 0; i < n; ++i) {
        ExpectSameBits(FromLane<F>(out[i]),
                       CtScalarMul(bases[i], SecretFr(ks[i])), "ladder lane");
      }
      LaneDigits<6>(ks, 22, &mag, &neg);
      Lane<F>::kFixedBase(c, tab.LaneEntries().data(), mag.data(), neg.data(),
                          n, out, nullptr);
      for (int i = 0; i < n; ++i) {
        ExpectSameBits(FromLane<F>(out[i]), tab.MulCt(SecretFr(ks[i])),
                       "fixed-base lane");
      }
    }
  }
}

TEST(CtLanes, KernelsBitMatchScalarLaddersInEveryLane) {
  if (!crypto::accel::IfmaLanesActive()) {
    GTEST_SKIP() << "AVX-512 IFMA lanes inactive on this host";
  }
  Rng rng(0x1a4e);
  {
    SCOPED_TRACE("G1");
    CheckKernelsInEveryLane<Fp>(&rng);
  }
  {
    SCOPED_TRACE("G2");
    CheckKernelsInEveryLane<Fp2>(&rng);
  }
}

// CtMulBatch at every group size 1..17 (scalar groups below the crossover,
// full and partial lane groups above it; on each group the ladders and two
// tables' walks interleaved in one list, G1 and G2 jobs interleaved too):
// every result bit-matches its scalar call, and a fanned-out run in reverse
// unit order gives the same bits as a serial one.
TEST(CtLanes, BatchBitMatchesScalarCallsAtEveryGroupSize) {
  Rng rng(0xba7c);
  const std::vector<Fr> edge = BoothEdgeScalars();
  const crypto::FixedBaseTable<Fp> tab(crypto::G1Mul(rng.NextNonZeroFr()));
  const auto& gen = crypto::G1GeneratorTable();
  const crypto::FixedBaseTable<Fp2> tab2(crypto::G2Mul(rng.NextNonZeroFr()));
  const auto& gen2 = crypto::G2GeneratorTable();
  for (std::size_t n = 1; n <= 17; ++n) {
    SCOPED_TRACE(n);
    crypto::CtMulBatch batch, fanned;
    std::vector<G1> want;
    std::vector<G2> want2;
    for (std::size_t i = 0; i < n; ++i) {
      const SecretFr k(edge[(3 * n + i) % edge.size()]);
      const G1 base = crypto::G1Mul(rng.NextNonZeroFr());
      const G2 base2 = crypto::G2Mul(rng.NextNonZeroFr());
      for (crypto::CtMulBatch* b : {&batch, &fanned}) {
        b->Add(base, k);
        b->Add(tab2, k);
        b->Add(tab, k);
        b->Add(base2, k + Fr::One());
        b->Add(gen, k + Fr::One());
        b->Add(gen2, k);
      }
      want.push_back(CtScalarMul(base, k));
      want2.push_back(tab2.MulCt(k));
      want.push_back(tab.MulCt(k));
      want2.push_back(CtScalarMul(base2, k + Fr::One()));
      want.push_back(gen.MulCt(k + Fr::One()));
      want2.push_back(gen2.MulCt(k));
    }
    batch.Run();
    fanned.Run(
        [](std::size_t units, const std::function<void(std::size_t)>& fn) {
          for (std::size_t u = units; u-- > 0;) fn(u);  // reverse order
        });
    for (std::size_t i = 0; i < want.size(); ++i) {
      ExpectSameBits(batch.g1(i), want[i], "G1 batched");
      ExpectSameBits(fanned.g1(i), want[i], "G1 fanned out");
    }
    for (std::size_t i = 0; i < want2.size(); ++i) {
      ExpectSameBits(batch.g2(i), want2[i], "G2 batched");
      ExpectSameBits(fanned.g2(i), want2[i], "G2 fanned out");
    }
  }
}

// The lane kernels' step sequence is one per call whatever the scalars:
// full groups of ladders and fixed-base walks on both groups over distinct
// scalar sets record identical traces, and where the lanes run, the trace
// is the lane kernels' (lower-case steps) with the scalar ladder's shape,
// the G2 groups first.
TEST(CtTrace, LaneKernelTraceIsScalarIndependent) {
  Rng rng(0x7ace);
  std::vector<G1> bases;
  std::vector<G2> bases2;
  for (int i = 0; i < 8; ++i) {
    bases.push_back(crypto::G1Mul(rng.NextNonZeroFr()));
    bases2.push_back(crypto::G2Mul(rng.NextNonZeroFr()));
  }
  const auto& gen = crypto::G1GeneratorTable();
  const auto& gen2 = crypto::G2GeneratorTable();
  auto trace_one = [&](const std::vector<Fr>& ks) {
    crypto::CtMulBatch batch;
    for (std::size_t i = 0; i < 8; ++i) {
      batch.Add(bases[i], SecretFr(ks[i]));
      batch.Add(gen2, SecretFr(ks[i]));
      batch.Add(gen, SecretFr(ks[i]));
      batch.Add(bases2[i], SecretFr(ks[i]));
    }
    TraceCapture cap;
    batch.Run();
    return cap.Take();
  };
  const std::vector<Fr> edge = BoothEdgeScalars();
  std::vector<Fr> a(edge.begin(), edge.begin() + 8), b;
  for (int i = 0; i < 8; ++i) b.push_back(rng.NextFr());
  const auto t1 = trace_one(a);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, trace_one(b)) << "lane kernel trace depends on scalars";
  if (crypto::accel::IfmaLanesActive()) {
    std::vector<std::pair<char, unsigned>> group;
    for (unsigned w = 26; w-- > 0;) {
      if (w != 25) {
        for (int i = 0; i < 5; ++i) group.emplace_back('d', w);
      }
      group.emplace_back('t', w);
      group.emplace_back('u', w);
    }
    for (unsigned w = 0; w < 22; ++w) {
      group.emplace_back('t', w);
      group.emplace_back('u', w);
    }
    std::vector<std::pair<char, unsigned>> want = group;  // G2
    want.insert(want.end(), group.begin(), group.end());   // G1
    EXPECT_EQ(t1, want);
  }
}

// --- 4. MSan poisoning harness (clang -fsanitize=memory builds only) --------

#ifdef APQA_CT_MSAN

TEST(CtMsan, PoisonedSecretSurvivesFieldArithmetic) {
  Rng rng(1);
  Fr k = rng.NextFr();
  Fr pub = rng.NextFr();
  SecretFr sk(k);
  CtPoison(&sk, sizeof(sk));
  SecretFr combined = sk * pub + sk;
  SecretFr inv = CtInverse(combined);
  CtDeclassifyMem(&inv, sizeof(inv));
  // declassify: MSan oracle — compare against the unpoisoned reference
  EXPECT_EQ(inv.Declassify(), (k * pub + k).CtInverse());
}

TEST(CtMsan, PoisonedScalarFixedBaseLadderIsBranchAndIndexClean) {
  Rng rng(2);
  Fr k = rng.NextFr();
  SecretFr sk(k);
  CtPoison(&sk, sizeof(sk));
  G1 r = crypto::G1GeneratorTable().MulCt(sk);
  CtDeclassifyMem(&r, sizeof(r));
  EXPECT_EQ(r, crypto::G1Mul(k));
}

TEST(CtMsan, PoisonedScalarVariableBaseLadderIsBranchAndIndexClean) {
  Rng rng(3);
  G1 base = crypto::G1Mul(rng.NextNonZeroFr());
  Fr k = rng.NextFr();
  SecretFr sk(k);
  CtPoison(&sk, sizeof(sk));
  G1 r = CtScalarMul(base, sk);
  CtDeclassifyMem(&r, sizeof(r));
  EXPECT_EQ(r, base.ScalarMul(k));
}

TEST(CtMsan, PoisonedExponentGtLadderIsBranchClean) {
  Rng rng(4);
  GT base = crypto::Pairing(crypto::G1Mul(rng.NextNonZeroFr()),
                            crypto::G2Mul(rng.NextNonZeroFr()));
  Fr k = rng.NextFr();
  SecretFr sk(k);
  CtPoison(&sk, sizeof(sk));
  GT r = CtPow(base, sk);
  CtDeclassifyMem(&r, sizeof(r));
  Limbs<4> e = k.ToCanonical();
  EXPECT_EQ(r, base.Pow(std::span<const u64>(e.data(), 4)));
}

#endif  // APQA_CT_MSAN

}  // namespace
}  // namespace apqa
