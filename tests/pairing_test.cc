// Bilinearity and non-degeneracy tests for the BLS12-381 ate pairing.
#include <gtest/gtest.h>

#include "crypto/pairing.h"
#include "crypto/pairing_prepared.h"
#include "crypto/rng.h"
#include "reference/pairing_generic.h"

namespace apqa::crypto {
namespace {

// Pair lists of n = 0..4 random pairs, each list also in variants with an
// infinity on the G1 or the G2 side of one pair. Every list goes against
// MultiPairingGeneric (the generic Miller loops under the exact final
// exponentiation, cubed).
std::vector<std::vector<std::pair<G1, G2>>> OracleCases(Rng* rng) {
  std::vector<std::vector<std::pair<G1, G2>>> cases;
  for (std::size_t n = 0; n <= 4; ++n) {
    std::vector<std::pair<G1, G2>> pairs;
    for (std::size_t i = 0; i < n; ++i) {
      pairs.emplace_back(G1Mul(rng->NextNonZeroFr()),
                         G2Mul(rng->NextNonZeroFr()));
    }
    cases.push_back(pairs);
    if (n == 0) continue;
    auto g1_inf = pairs, g2_inf = pairs;
    g1_inf[0].first = G1::Infinity();
    g2_inf[n - 1].second = G2::Infinity();
    cases.push_back(g1_inf);
    cases.push_back(g2_inf);
  }
  return cases;
}

TEST(PairingTest, NonDegenerate) {
  GT e = Pairing(G1Generator(), G2Generator());
  EXPECT_FALSE(e.IsOne());
  EXPECT_FALSE(e.IsZero());
}

TEST(PairingTest, Bilinearity) {
  Rng rng(100);
  Fr a = rng.NextNonZeroFr();
  Fr b = rng.NextNonZeroFr();
  GT base = Pairing(G1Generator(), G2Generator());
  // e(g^a, h^b) == e(g,h)^(ab)
  GT lhs = Pairing(G1Mul(a), G2Mul(b));
  Limbs<4> ab = (a * b).ToCanonical();
  GT rhs = base.Pow(std::span<const u64>(ab.data(), 4));
  EXPECT_EQ(lhs, rhs);
}

TEST(PairingTest, LinearInFirstArgument) {
  Rng rng(101);
  Fr a = rng.NextNonZeroFr(), b = rng.NextNonZeroFr();
  // e(g^a * g^b, h) == e(g^a, h) * e(g^b, h)
  GT lhs = Pairing(G1Mul(a) + G1Mul(b), G2Generator());
  GT rhs = Pairing(G1Mul(a), G2Generator()) * Pairing(G1Mul(b), G2Generator());
  EXPECT_EQ(lhs, rhs);
}

TEST(PairingTest, LinearInSecondArgument) {
  Rng rng(102);
  Fr a = rng.NextNonZeroFr(), b = rng.NextNonZeroFr();
  GT lhs = Pairing(G1Generator(), G2Mul(a) + G2Mul(b));
  GT rhs = Pairing(G1Generator(), G2Mul(a)) * Pairing(G1Generator(), G2Mul(b));
  EXPECT_EQ(lhs, rhs);
}

TEST(PairingTest, InfinityMapsToOne) {
  EXPECT_TRUE(Pairing(G1::Infinity(), G2Generator()).IsOne());
  EXPECT_TRUE(Pairing(G1Generator(), G2::Infinity()).IsOne());
}

TEST(PairingTest, MultiPairingMatchesProduct) {
  Rng rng(103);
  std::vector<std::pair<G1, G2>> pairs;
  GT expect = GT::One();
  for (int i = 0; i < 3; ++i) {
    G1 p = G1Mul(rng.NextNonZeroFr());
    G2 q = G2Mul(rng.NextNonZeroFr());
    pairs.emplace_back(p, q);
    expect = expect * Pairing(p, q);
  }
  EXPECT_EQ(MultiPairing(pairs), expect);
}

TEST(PairingTest, PairingProductCancellation) {
  // e(g^a, h) * e(g^-a, h) == 1 — the pattern used throughout ABS.Verify.
  Rng rng(104);
  Fr a = rng.NextNonZeroFr();
  std::vector<std::pair<G1, G2>> pairs = {
      {G1Mul(a), G2Generator()},
      {-G1Mul(a), G2Generator()},
  };
  EXPECT_TRUE(MultiPairing(pairs).IsOne());
}

TEST(PairingTest, CyclotomicSquareMatchesGenericSquare) {
  // Granger-Scott squaring is only valid in the cyclotomic subgroup; every
  // pairing output lives there.
  Rng rng(105);
  GT f = Pairing(G1Mul(rng.NextNonZeroFr()), G2Mul(rng.NextNonZeroFr()));
  GT by_cyc = f.CyclotomicSquare();
  GT by_generic = f.Square();
  EXPECT_EQ(by_cyc, by_generic);
  // Iterate a few times to catch drift.
  for (int i = 0; i < 5; ++i) {
    f = f.CyclotomicSquare();
  }
  GT g = Pairing(G1Mul(rng.NextNonZeroFr()), G2Mul(rng.NextNonZeroFr()));
  (void)g;
}

TEST(PairingTest, PowCyclotomicMatchesPow) {
  Rng rng(106);
  GT f = Pairing(G1Mul(rng.NextNonZeroFr()), G2Mul(rng.NextNonZeroFr()));
  Limbs<4> e = rng.NextFr().ToCanonical();
  std::span<const u64> es(e.data(), 4);
  EXPECT_EQ(f.PowCyclotomic(es), f.Pow(es));
  u64 small[1] = {1};
  EXPECT_EQ(f.PowCyclotomic(std::span<const u64>(small, 1)), f);
  u64 zero[1] = {0};
  EXPECT_TRUE(f.PowCyclotomic(std::span<const u64>(zero, 1)).IsOne());
}

TEST(PairingTest, TwistedMillerLoopMatchesGeneric) {
  // The production Miller loop works on the twist with sparse Fp2 lines
  // (each line carries an extra w^3 in Fp4 and an Fp2 projective scale,
  // both killed by the final exponentiation); the generic loop over
  // E(Fp12) under the exact final exponentiation is the reference.
  Rng rng(107);
  for (const auto& pairs : OracleCases(&rng)) {
    SCOPED_TRACE("pairs: " + std::to_string(pairs.size()));
    EXPECT_EQ(MultiPairing(pairs), MultiPairingGeneric(pairs));
    if (pairs.size() == 1) {
      EXPECT_EQ(Pairing(pairs[0].first, pairs[0].second),
                MultiPairingGeneric(pairs));
    }
  }
  EXPECT_TRUE(MillerLoopGeneric(G1::Infinity(), G2Generator()).IsOne());
  EXPECT_TRUE(MillerLoopGeneric(G1Generator(), G2::Infinity()).IsOne());
}

TEST(PairingTest, FinalExponentiationMatchesGenericCubed) {
  // The production chain computes f^(3 (p^4-p^2+1)/r) after the easy part;
  // the generic path computes the exact exponent. Cube the oracle.
  Rng rng(108);
  for (int i = 0; i < 3; ++i) {
    GT f = MillerLoopPrepared(G1Mul(rng.NextNonZeroFr()),
                              G2Prepared(G2Mul(rng.NextNonZeroFr())));
    GT generic = FinalExponentiationGeneric(f);
    EXPECT_EQ(FinalExponentiation(f), generic * generic * generic);
  }
  EXPECT_TRUE(FinalExponentiation(GT::One()).IsOne());
}

TEST(PairingPreparedTest, MatchesOnTheFlyMillerLoop) {
  // Cached homogeneous-projective lines differ from the affine lines only
  // by Fp2 scale factors, so equality holds after final exponentiation.
  // Every pair is served from a cached table here; the fresh-point path is
  // TwistedMillerLoopMatchesGeneric.
  Rng rng(109);
  for (const auto& pairs : OracleCases(&rng)) {
    SCOPED_TRACE("pairs: " + std::to_string(pairs.size()));
    std::vector<G2Prepared> tabs;
    tabs.reserve(pairs.size());
    std::vector<PreparedPair> prepped;
    for (const auto& [p, q] : pairs) {
      tabs.emplace_back(q);
      prepped.push_back({p, &tabs.back()});
    }
    const GT want = MultiPairingGeneric(pairs);
    EXPECT_EQ(MultiPairingPrepared(prepped), want);
    if (pairs.size() == 1) {
      EXPECT_EQ(PairWith(pairs[0].first, tabs[0]), want);
      EXPECT_EQ(FinalExponentiation(MillerLoopPrepared(pairs[0].first,
                                                       tabs[0])),
                want);
    }
  }
}

TEST(PairingPreparedTest, OneTableManyG1s) {
  Rng rng(110);
  G2 q = G2Mul(rng.NextNonZeroFr());
  G2Prepared qp(q);
  for (int i = 0; i < 4; ++i) {
    G1 p = G1Mul(rng.NextNonZeroFr());
    EXPECT_EQ(PairWith(p, qp), Pairing(p, q));
  }
}

TEST(PairingPreparedTest, SameScalarBothSides) {
  // "P == Q"-style edge: both sides derived from the same scalar.
  Rng rng(111);
  Fr a = rng.NextNonZeroFr();
  G2Prepared qp(G2Mul(a));
  EXPECT_EQ(PairWith(G1Mul(a), qp), Pairing(G1Mul(a), G2Mul(a)));
}

TEST(PairingPreparedTest, IdentitySemantics) {
  // Documented skip-pair semantics: identity on either side is neutral.
  Rng rng(112);
  G1 p = G1Mul(rng.NextNonZeroFr());
  G2 q = G2Mul(rng.NextNonZeroFr());
  G2Prepared q_inf;  // default: prepared infinity
  EXPECT_TRUE(q_inf.IsInfinity());
  EXPECT_TRUE(G2Prepared(G2::Infinity()).IsInfinity());
  EXPECT_TRUE(PairWith(p, q_inf).IsOne());
  EXPECT_TRUE(PairWith(G1::Infinity(), G2Prepared(q)).IsOne());
  EXPECT_TRUE(MillerLoopPrepared(G1::Infinity(), G2Prepared(q)).IsOne());
  // All pairs skipped -> One.
  G2Prepared qp(q);
  EXPECT_TRUE(MultiPairingPrepared({{G1::Infinity(), &qp}, {p, &q_inf}},
                                   {{p, G2::Infinity()}, {G1::Infinity(), q}})
                  .IsOne());
  EXPECT_TRUE(MultiPairingPrepared({}).IsOne());
  // A skipped pair among live ones drops out of the product.
  GT with_skips = MultiPairingPrepared({{p, &qp}, {G1::Infinity(), &qp}},
                                       {{G1::Infinity(), q}});
  EXPECT_EQ(with_skips, Pairing(p, q));
}

TEST(PairingPreparedTest, MultiPairingPreparedMatchesMultiPairing) {
  Rng rng(113);
  std::vector<std::pair<G1, G2>> pairs;
  std::vector<G2Prepared> tabs;
  for (int i = 0; i < 3; ++i) {
    pairs.emplace_back(G1Mul(rng.NextNonZeroFr()), G2Mul(rng.NextNonZeroFr()));
  }
  tabs.reserve(pairs.size());
  for (const auto& [p, q] : pairs) tabs.emplace_back(q);

  GT want = MultiPairing(pairs);
  // All prepared.
  std::vector<PreparedPair> prepped;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    prepped.push_back({pairs[i].first, &tabs[i]});
  }
  EXPECT_EQ(MultiPairingPrepared(prepped), want);
  // Mixed prepared + fresh.
  EXPECT_EQ(MultiPairingPrepared({prepped[0]}, {pairs[1], pairs[2]}), want);
  // All fresh.
  EXPECT_EQ(MultiPairingPrepared({}, pairs), want);
}

TEST(PairingTest, MultiPairingIdentityPairsSkipped) {
  // MultiPairing documents e(P, O) = e(O, Q) = 1; pairs with an identity
  // side must drop out of the product rather than poison it.
  Rng rng(114);
  G1 p = G1Mul(rng.NextNonZeroFr());
  G2 q = G2Mul(rng.NextNonZeroFr());
  EXPECT_TRUE(MultiPairing({{G1::Infinity(), q}, {p, G2::Infinity()}}).IsOne());
  EXPECT_TRUE(MultiPairing({}).IsOne());
  EXPECT_EQ(MultiPairing({{p, q}, {G1::Infinity(), q}}), Pairing(p, q));
}

TEST(PairingTest, SparseLineMulMatchesFullMul) {
  Rng rng(115);
  auto rand_fp = [&rng] {
    Limbs<6> l;
    rng.Fill(l.data(), sizeof(l));
    l[5] &= (u64{1} << 57) - 1;  // keep below 2^377 < p
    return Fp::FromCanonicalReduce(l);
  };
  auto rand_fp2 = [&rand_fp] { return Fp2{rand_fp(), rand_fp()}; };
  for (int i = 0; i < 4; ++i) {
    // A random dense element times a random sparse line, both ways.
    Fp12 dense;
    dense.c0 = Fp6{rand_fp2(), rand_fp2(), rand_fp2()};
    dense.c1 = Fp6{rand_fp2(), rand_fp2(), rand_fp2()};
    Fp2 a0 = rand_fp2(), a2 = rand_fp2(), a3 = rand_fp2();
    EXPECT_EQ(dense.MulBySparseLine(a0, a2, a3),
              dense * Fp12::FromSparseLine(a0, a2, a3));
  }
  // Degenerate slots.
  Fp12 dense = Fp12::One();
  EXPECT_EQ(dense.MulBySparseLine(Fp2::Zero(), Fp2::Zero(), Fp2::Zero()),
            Fp12::Zero());
  Fp2 a0 = rand_fp2();
  EXPECT_EQ(dense.MulBySparseLine(a0, Fp2::Zero(), Fp2::Zero()),
            Fp12::FromSparseLine(a0, Fp2::Zero(), Fp2::Zero()));
}

TEST(PairingTest, GTElementHasOrderR) {
  // e(g,h)^r == 1.
  GT e = Pairing(G1Generator(), G2Generator());
  Limbs<4> r = FrTag::kModulus;
  EXPECT_TRUE(e.Pow(std::span<const u64>(r.data(), 4)).IsOne());
}

}  // namespace
}  // namespace apqa::crypto
