// Differential tests for the scalar-multiplication engine (crypto/msm.h):
// fixed-base tables, Pippenger MSM, batched inversion / affine
// normalization, and the lockstep MultiPairing — each checked against the
// generic reference kernels.
#include <gtest/gtest.h>

#include "crypto/msm.h"
#include "crypto/pairing.h"
#include "crypto/rng.h"
#include "reference/pairing_generic.h"

namespace apqa::crypto {
namespace {

Fr RMinusOne() { return -Fr::One(); }

TEST(BatchInverseTest, MatchesScalarInverse) {
  Rng rng(1);
  std::vector<Fp> xs(17);
  for (auto& x : xs) x = Fp::FromU64(rng.NextU64() | 1);
  std::vector<Fp> expect(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) expect[i] = xs[i].Inverse();
  BatchInverse(xs.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_EQ(xs[i], expect[i]);
}

TEST(BatchInverseTest, ZeroEntriesStayZero) {
  Rng rng(2);
  std::vector<Fp> xs = {Fp::FromU64(7), Fp::Zero(), Fp::FromU64(11),
                        Fp::Zero()};
  std::vector<Fp> expect(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) expect[i] = xs[i].Inverse();
  BatchInverse(xs.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_EQ(xs[i], expect[i]);
  EXPECT_TRUE(xs[1].IsZero());
  // All-zero and empty inputs must not divide by zero.
  std::vector<Fp> zeros(3, Fp::Zero());
  BatchInverse(zeros.data(), zeros.size());
  for (const auto& z : zeros) EXPECT_TRUE(z.IsZero());
  BatchInverse(zeros.data(), 0);
}

TEST(BatchToAffineTest, NormalizesMixedPoints) {
  Rng rng(3);
  std::vector<G1> pts;
  for (int i = 0; i < 9; ++i) pts.push_back(G1Mul(rng.NextNonZeroFr()));
  pts.insert(pts.begin() + 4, G1::Infinity());
  std::vector<G1> orig = pts;
  BatchToAffine<Fp>(std::span<G1>(pts));
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i], orig[i]);
    if (!pts[i].IsInfinity()) {
      EXPECT_EQ(pts[i].z, Fp::One());
      Fp ax, ay;
      orig[i].ToAffine(&ax, &ay);
      EXPECT_EQ(pts[i].x, ax);
      EXPECT_EQ(pts[i].y, ay);
    }
  }
  EXPECT_TRUE(pts[4].IsInfinity());
}

TEST(MixedAddTest, MatchesGeneralAddition) {
  Rng rng(4);
  G1 a = G1Mul(rng.NextNonZeroFr());
  G1 b = G1Mul(rng.NextNonZeroFr());
  Fp bx, by;
  b.ToAffine(&bx, &by);
  EXPECT_EQ(a.AddMixed(bx, by), a + b);
  // Infinity + affine, doubling, and inverse edge cases.
  EXPECT_EQ(G1::Infinity().AddMixed(bx, by), b);
  EXPECT_EQ(b.AddMixed(bx, by), b.Double());
  EXPECT_TRUE((-b).AddMixed(bx, by).IsInfinity());
}

TEST(FixedBaseTableTest, G1MatchesScalarMul) {
  Rng rng(5);
  G1 base = G1Mul(rng.NextNonZeroFr());
  FixedBaseTable<Fp> tab(base);
  for (int i = 0; i < 20; ++i) {
    Fr k = rng.NextFr();
    EXPECT_EQ(tab.Mul(k), base.ScalarMul(k));
  }
  // Edge scalars: 0, 1, 2, r-1 (top digit pattern), small powers of 16 —
  // exercising both mini-scalar tracks of the GLV window walk (k2 == 0 for
  // the small ones, k2 == lambda's complement shape for r-1).
  EXPECT_TRUE(tab.Mul(Fr::Zero()).IsInfinity());
  EXPECT_EQ(tab.Mul(Fr::One()), base);
  EXPECT_EQ(tab.Mul(Fr::FromU64(2)), base.Double());
  EXPECT_EQ(tab.Mul(RMinusOne()), -base);
  EXPECT_EQ(tab.Mul(Fr::FromU64(16)), base.ScalarMul(Fr::FromU64(16)));
  EXPECT_EQ(tab.Mul(Fr::FromU64(15)), base.ScalarMul(Fr::FromU64(15)));
}

TEST(FixedBaseTableTest, G2MatchesScalarMul) {
  Rng rng(6);
  G2 base = G2Mul(rng.NextNonZeroFr());
  FixedBaseTable<Fp2> tab(base);
  for (int i = 0; i < 10; ++i) {
    Fr k = rng.NextFr();
    EXPECT_EQ(tab.Mul(k), base.ScalarMul(k));
  }
  EXPECT_TRUE(tab.Mul(Fr::Zero()).IsInfinity());
  EXPECT_EQ(tab.Mul(Fr::One()), base);
  EXPECT_EQ(tab.Mul(RMinusOne()), -base);
}

TEST(FixedBaseTableTest, InfinityBase) {
  FixedBaseTable<Fp> tab(G1::Infinity());
  EXPECT_TRUE(tab.Initialized());
  EXPECT_TRUE(tab.Mul(Fr::FromU64(123)).IsInfinity());
  FixedBaseTable<Fp> empty;
  EXPECT_FALSE(empty.Initialized());
}

TEST(FixedBaseTableTest, GeneratorTablesMatchGeneratorMul) {
  Rng rng(7);
  for (int i = 0; i < 5; ++i) {
    Fr k = rng.NextFr();
    EXPECT_EQ(G1Mul(k), G1Generator().ScalarMul(k));
    EXPECT_EQ(G2Mul(k), G2Generator().ScalarMul(k));
  }
}

G1 NaiveMsmG1(const std::vector<G1>& pts, const std::vector<Fr>& ks) {
  G1 acc = G1::Infinity();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    acc = acc + pts[i].ScalarMul(ks[i]);
  }
  return acc;
}

TEST(MsmTest, G1MatchesNaiveAcrossSizes) {
  Rng rng(8);
  // Spans both the naive fallback (n < 8) and Pippenger windows.
  for (std::size_t n : {0u, 1u, 2u, 7u, 8u, 9u, 33u, 100u}) {
    std::vector<G1> pts(n);
    std::vector<Fr> ks(n);
    for (std::size_t i = 0; i < n; ++i) {
      pts[i] = G1Mul(rng.NextNonZeroFr());
      ks[i] = rng.NextFr();
    }
    EXPECT_EQ(G1Msm(std::span<const G1>(pts), std::span<const Fr>(ks)),
              NaiveMsmG1(pts, ks))
        << "n=" << n;
  }
}

TEST(MsmTest, G1EdgeTerms) {
  Rng rng(9);
  std::vector<G1> pts;
  std::vector<Fr> ks;
  // Mix of zero scalars, infinity points, one, and r-1.
  for (int i = 0; i < 12; ++i) {
    pts.push_back(G1Mul(rng.NextNonZeroFr()));
    ks.push_back(rng.NextFr());
  }
  ks[0] = Fr::Zero();
  ks[1] = Fr::One();
  ks[2] = RMinusOne();
  ks[4] = Fr::FromU64(2);
  pts[3] = G1::Infinity();
  EXPECT_EQ(G1Msm(std::span<const G1>(pts), std::span<const Fr>(ks)),
            NaiveMsmG1(pts, ks));
  // All-degenerate input.
  std::vector<G1> inf(3, G1::Infinity());
  std::vector<Fr> zero(3, Fr::Zero());
  EXPECT_TRUE(
      G1Msm(std::span<const G1>(inf), std::span<const Fr>(zero)).IsInfinity());
}

TEST(MsmTest, G2MatchesNaive) {
  Rng rng(10);
  for (std::size_t n : {3u, 9u, 20u}) {
    std::vector<G2> pts(n);
    std::vector<Fr> ks(n);
    for (std::size_t i = 0; i < n; ++i) {
      pts[i] = G2Mul(rng.NextNonZeroFr());
      ks[i] = rng.NextFr();
    }
    G2 naive = G2::Infinity();
    for (std::size_t i = 0; i < n; ++i) {
      naive = naive + pts[i].ScalarMul(ks[i]);
    }
    EXPECT_EQ(G2Msm(std::span<const G2>(pts), std::span<const Fr>(ks)), naive)
        << "n=" << n;
  }
}

TEST(MsmTest, MsmLinearity) {
  // MSM(k1, P; k2, P) == (k1 + k2) * P — exercises bucket collisions.
  Rng rng(11);
  G1 p = G1Mul(rng.NextNonZeroFr());
  Fr k1 = rng.NextFr(), k2 = rng.NextFr();
  std::vector<G1> pts(9, p);
  std::vector<Fr> ks(9, k1);
  ks[8] = k2;
  Fr total = k2;
  for (int i = 0; i < 8; ++i) total = total + k1;
  EXPECT_EQ(G1Msm(std::span<const G1>(pts), std::span<const Fr>(ks)),
            p.ScalarMul(total));
}

// A one-term MSM takes the GLV ladder (k = k1 + k2*lambda), so the scalars
// around the split boundary and the top of the range must agree with the
// plain full-width wNAF, for both the single-set and the multi-set entry.
template <typename F>
void ExpectSinglePointMsmMatchesCanonical(const CurvePoint<F>& p, Rng* rng) {
  using Pt = CurvePoint<F>;
  const Fr lambda = Fr::FromCanonical(GlvLambda());
  std::vector<Fr> ks = {Fr::Zero(),         Fr::One(),
                        Fr::FromU64(2),     lambda - Fr::One(),
                        lambda,             lambda + Fr::One(),
                        RMinusOne()};
  for (int i = 0; i < 8; ++i) ks.push_back(rng->NextFr());
  for (const Fr& k : ks) {
    const Pt want = p.ScalarMulCanonical(k.ToCanonical());
    EXPECT_EQ(Msm<F>(std::span<const Pt>(&p, 1), std::span<const Fr>(&k, 1)),
              want);
    std::vector<std::vector<Fr>> sets = {{k}, {Fr::One()}};
    std::vector<Pt> shared = MsmShared<F>(
        std::span<const Pt>(&p, 1),
        std::span<const std::vector<Fr>>(sets.data(), sets.size()));
    EXPECT_EQ(shared[0], want);
    EXPECT_EQ(shared[1], p);
  }
}

TEST(MsmTest, SinglePointMatchesCanonicalLadder) {
  Rng rng(16);
  ExpectSinglePointMsmMatchesCanonical(G1Mul(rng.NextNonZeroFr()), &rng);
  ExpectSinglePointMsmMatchesCanonical(G2Mul(rng.NextNonZeroFr()), &rng);
}

TEST(MultiPairingBatchedTest, MatchesPerPairReference) {
  // Per pair, the generic Miller loop; one exact final exponentiation over
  // their product, cubed. Infinity on either side must drop out.
  Rng rng(12);
  for (std::size_t n = 0; n <= 4; ++n) {
    std::vector<std::pair<G1, G2>> pairs;
    for (std::size_t i = 0; i < n; ++i) {
      pairs.emplace_back(G1Mul(rng.NextNonZeroFr()),
                         G2Mul(rng.NextNonZeroFr()));
    }
    EXPECT_EQ(MultiPairing(pairs), MultiPairingGeneric(pairs)) << "n=" << n;
    if (n < 2) continue;
    pairs[0].first = G1::Infinity();
    pairs[1].second = G2::Infinity();
    EXPECT_EQ(MultiPairing(pairs), MultiPairingGeneric(pairs))
        << "n=" << n << " with infinity";
  }
}

TEST(MultiPairingBatchedTest, SkipsInfinityPairs) {
  Rng rng(13);
  G1 p = G1Mul(rng.NextNonZeroFr());
  G2 q = G2Mul(rng.NextNonZeroFr());
  std::vector<std::pair<G1, G2>> pairs = {
      {G1::Infinity(), q}, {p, q}, {p, G2::Infinity()}};
  EXPECT_EQ(MultiPairing(pairs), Pairing(p, q));
  std::vector<std::pair<G1, G2>> all_inf = {{G1::Infinity(), G2::Infinity()}};
  EXPECT_TRUE(MultiPairing(all_inf).IsOne());
  EXPECT_TRUE(MultiPairing({}).IsOne());
}

// Shared-table multi-set MSM (MsmShared): fold the SAME points under
// several scalar vectors off one table build. Must agree with independent
// per-set Msm calls, including degenerate terms and sets of very different
// bit widths (the batch verifier mixes 128-bit weights with full-width
// mu*rho scalars).
TEST(MsmTest, SharedMultiSetMatchesPerSetMsm) {
  Rng rng(15);
  for (std::size_t n : {1u, 2u, 5u, 40u}) {
    std::vector<G1> pts(n);
    std::vector<Fr> narrow(n), wide(n);
    for (std::size_t i = 0; i < n; ++i) {
      pts[i] = G1Mul(rng.NextNonZeroFr());
      narrow[i] = Fr::FromU64(rng.NextU64());  // short scalars
      wide[i] = rng.NextFr();                  // full width
    }
    if (n >= 5) {
      pts[1] = G1::Infinity();
      narrow[2] = Fr::Zero();
      wide[3] = Fr::Zero();
    }
    std::vector<std::vector<Fr>> sets = {narrow, wide};
    std::vector<G1> folded = G1MsmShared(
        std::span<const G1>(pts),
        std::span<const std::vector<Fr>>(sets.data(), sets.size()));
    ASSERT_EQ(folded.size(), 2u);
    EXPECT_EQ(folded[0],
              G1Msm(std::span<const G1>(pts), std::span<const Fr>(narrow)))
        << "n=" << n;
    EXPECT_EQ(folded[1],
              G1Msm(std::span<const G1>(pts), std::span<const Fr>(wide)))
        << "n=" << n;
  }
  // G2 flavour, same contract.
  std::vector<G2> qs(7);
  std::vector<Fr> a(7), b(7);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    qs[i] = G2Mul(rng.NextNonZeroFr());
    a[i] = Fr::FromU64(rng.NextU64());
    b[i] = rng.NextFr();
  }
  qs[4] = G2::Infinity();
  std::vector<std::vector<Fr>> gsets = {a, b};
  std::vector<G2> gf = G2MsmShared(
      std::span<const G2>(qs),
      std::span<const std::vector<Fr>>(gsets.data(), gsets.size()));
  ASSERT_EQ(gf.size(), 2u);
  EXPECT_EQ(gf[0], G2Msm(std::span<const G2>(qs), std::span<const Fr>(a)));
  EXPECT_EQ(gf[1], G2Msm(std::span<const G2>(qs), std::span<const Fr>(b)));
}

// The Straus paths (2..127 terms) GLV-split a scalar set wider than 128
// bits into k1 * P + k2 * phi(P). Every prefix of a fixed point list, under
// a 128-bit set (no split), a full-width set with the top-of-range and
// split-boundary scalars, and a set alternating the two (split, with half
// its terms short), must equal the prefix sum of plain wNAF
// ScalarMulCanonical products — through Msm and through MsmShared folding
// all three sets off one table.
template <typename F>
void ExpectStrausMatchesCanonical(const CurvePoint<F>& gen, std::size_t step,
                                  Rng* rng) {
  using Pt = CurvePoint<F>;
  const std::size_t kMax = kMsmStrausCutoff - 1;
  const Fr lambda = Fr::FromCanonical(GlvLambda());
  std::vector<Pt> pts(kMax);
  std::vector<std::vector<Fr>> sets(3, std::vector<Fr>(kMax));
  for (std::size_t i = 0; i < kMax; ++i) {
    pts[i] = gen.ScalarMul(rng->NextNonZeroFr());
    const Fr short_k =
        Fr::FromCanonical(Limbs<4>{rng->NextU64(), rng->NextU64(), 0, 0});
    const Fr wide_k = rng->NextFr();
    sets[0][i] = short_k;
    sets[1][i] = wide_k;
    sets[2][i] = i % 2 == 0 ? short_k : wide_k;
  }
  sets[1][0] = RMinusOne();
  sets[1][1] = lambda;
  sets[1][2] = lambda + Fr::One();
  sets[2][1] = lambda - Fr::One();
  // prefix[s][n] = sum_{i < n} sets[s][i] * pts[i].
  std::vector<std::vector<Pt>> prefix(3, std::vector<Pt>(kMax + 1));
  for (std::size_t s = 0; s < 3; ++s) {
    prefix[s][0] = Pt::Infinity();
    for (std::size_t i = 0; i < kMax; ++i) {
      prefix[s][i + 1] =
          prefix[s][i] + pts[i].ScalarMulCanonical(sets[s][i].ToCanonical());
    }
  }
  std::vector<std::size_t> sizes;
  for (std::size_t n = 2; n < kMax; n += step) sizes.push_back(n);
  sizes.push_back(kMax);
  for (std::size_t n : sizes) {
    const std::span<const Pt> ps(pts.data(), n);
    std::vector<std::vector<Fr>> cut(3);
    for (std::size_t s = 0; s < 3; ++s) {
      cut[s].assign(sets[s].begin(), sets[s].begin() + n);
      EXPECT_EQ(Msm<F>(ps, std::span<const Fr>(cut[s])), prefix[s][n])
          << "set " << s << " n=" << n;
    }
    const std::vector<Pt> shared = MsmShared<F>(
        ps, std::span<const std::vector<Fr>>(cut.data(), cut.size()));
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(shared[s], prefix[s][n]) << "shared set " << s << " n=" << n;
    }
  }
}

TEST(MsmTest, StrausGlvSplitMatchesCanonical) {
  Rng rng(17);
  ExpectStrausMatchesCanonical(G1Generator(), 1, &rng);
  ExpectStrausMatchesCanonical(G2Generator(), 9, &rng);
}

TEST(MultiPairingBatchedTest, CancellationStillHolds) {
  Rng rng(14);
  Fr a = rng.NextNonZeroFr();
  std::vector<std::pair<G1, G2>> pairs = {
      {G1Mul(a), G2Generator()},
      {-G1Mul(a), G2Generator()},
  };
  EXPECT_TRUE(MultiPairing(pairs).IsOne());
}

}  // namespace
}  // namespace apqa::crypto
