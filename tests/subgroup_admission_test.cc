// Oracles for the batched G1 subgroup admission (crypto/serde.h): the
// eight-lane IFMA kernel behind G1InSubgroupX8 / FirstOutsideG1Subgroup
// must agree, point for point, with the scalar InPrimeOrderSubgroup and
// with the definitional r·P = ∞ check (reference/), and a PointAdmission
// batch must blame the first bad point in wire order. On hosts without
// AVX-512 IFMA, or under APQA_FORCE_PORTABLE, the same tests pin the
// scalar arm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/mont_accel.h"
#include "crypto/rng.h"
#include "crypto/serde.h"
#include "reference/pairing_generic.h"
#include "test_hostile_points.h"

namespace apqa::crypto {
namespace {

// The lane kernel reads affine coordinates, as ReadG1 produces them.
G1 Affine(const G1& p) {
  Fp x, y;
  p.ToAffine(&x, &y);
  return G1::FromAffine(x, y);
}

// The order-3 points (0, ±2): y^2 = 0^3 + 4. phi fixes them, so the lane
// chain meets an exceptional addition on the first add.
G1 OrderThree(bool negate) {
  const Fp two = Fp::FromU64(2);
  return G1::FromAffine(Fp::Zero(), negate ? -two : two);
}

std::vector<G1> GeneratorMultiples(Rng* rng, int n) {
  std::vector<G1> out;
  for (int i = 1; i <= 4 && i <= n; ++i) {
    out.push_back(Affine(G1Generator().ScalarMul(Fr::FromU64(i))));
  }
  while (static_cast<int>(out.size()) < n) {
    out.push_back(Affine(G1Mul(rng->NextNonZeroFr())));
  }
  return out;
}

// Points on the curve outside the subgroup: the hostile point, its sums
// with subgroup points, and the order-3 points with and without a
// subgroup offset.
std::vector<G1> HostilePoints(Rng* rng) {
  const G1 h = hostile::NonSubgroupG1();
  std::vector<G1> out = {h, Affine(h.Double()), Affine(-h)};
  for (int i = 0; i < 5; ++i) out.push_back(Affine(h + G1Mul(rng->NextNonZeroFr())));
  for (bool neg : {false, true}) {
    const G1 t = OrderThree(neg);
    out.push_back(t);
    out.push_back(Affine(t + G1Generator()));
    out.push_back(Affine(t + G1Mul(rng->NextNonZeroFr())));
    out.push_back(Affine(t + h));
  }
  return out;
}

void ExpectLanesMatchOracles(const std::vector<G1>& pts) {
  for (std::size_t i = 0; i < pts.size(); i += 8) {
    const std::size_t n = std::min<std::size_t>(8, pts.size() - i);
    bool in[8];
    G1InSubgroupX8(std::span<const G1>(pts).subspan(i, n), in);
    for (std::size_t k = 0; k < n; ++k) {
      const G1& p = pts[i + k];
      ASSERT_TRUE(p.OnCurve(G1CurveB()));
      EXPECT_EQ(in[k], p.InPrimeOrderSubgroup()) << "point " << i + k;
      EXPECT_EQ(in[k], InPrimeOrderSubgroupByOrder(p))
          << "point " << i + k;
    }
  }
}

TEST(SubgroupAdmissionTest, ReportsWhichArmRuns) {
  std::printf("IFMA lanes %s\n", accel::IfmaLanesActive() ? "active" : "off");
  if (std::getenv("APQA_FORCE_PORTABLE") != nullptr &&
      std::string(std::getenv("APQA_FORCE_PORTABLE")) != "0") {
    EXPECT_FALSE(accel::IfmaLanesActive());
  }
}

// The kernel itself decides ordinary lanes and hands back only the lanes
// whose chain ended at Z = 0: the order-3 points, for which phi(P) = P
// makes the first chain addition a doubling.
TEST(SubgroupAdmissionTest, KernelDecidesOrdinaryLanes) {
  if (!accel::IfmaLanesActive()) GTEST_SKIP() << "no AVX-512 IFMA lanes";
  Rng rng(2506);
  const G1 h = hostile::NonSubgroupG1();
  std::vector<G1> pts = GeneratorMultiples(&rng, 5);
  pts.push_back(h);
  pts.push_back(Affine(h + G1Generator()));
  pts.push_back(OrderThree(true));
  const accel::LaneVerdict want[8] = {
      accel::LaneVerdict::kIn,  accel::LaneVerdict::kIn,
      accel::LaneVerdict::kIn,  accel::LaneVerdict::kIn,
      accel::LaneVerdict::kIn,  accel::LaneVerdict::kOut,
      accel::LaneVerdict::kOut, accel::LaneVerdict::kRecheck};
  u64 xs[8][6], ys[8][6];
  for (int i = 0; i < 8; ++i) {
    std::copy_n(pts[i].x.MontgomeryRepr().begin(), 6, xs[i]);
    std::copy_n(pts[i].y.MontgomeryRepr().begin(), 6, ys[i]);
  }
  for (int n = 1; n <= 8; ++n) {
    accel::LaneVerdict got[8];
    accel::G1SubgroupCheckX8(LaneConstants(), xs, ys, n, got);
    for (int i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << n << "/" << i;
  }
}

TEST(SubgroupAdmissionTest, GeneratorMultiplesAdmitted) {
  Rng rng(2501);
  const std::vector<G1> pts = GeneratorMultiples(&rng, 20);
  ExpectLanesMatchOracles(pts);
  EXPECT_EQ(FirstOutsideG1Subgroup(pts), pts.size());
}

TEST(SubgroupAdmissionTest, HostileAndOrderThreePointsRejected) {
  Rng rng(2502);
  const std::vector<G1> pts = HostilePoints(&rng);
  ExpectLanesMatchOracles(pts);
  for (const G1& p : pts) EXPECT_FALSE(p.InPrimeOrderSubgroup());
}

// Hostile points mixed into full lane groups with subgroup points, in
// every lane, so a rejected or re-checked lane cannot spill into its
// neighbours.
TEST(SubgroupAdmissionTest, MixedGroupsMatchOracles) {
  Rng rng(2503);
  const std::vector<G1> bad = HostilePoints(&rng);
  const std::vector<G1> good = GeneratorMultiples(&rng, 8);
  for (std::size_t b = 0; b < bad.size(); ++b) {
    std::vector<G1> pts = good;
    pts[b % 8] = bad[b];
    pts[(b + 3) % 8] = bad[(b + 1) % bad.size()];
    ExpectLanesMatchOracles(pts);
  }
}

// Batches of every size 1..17 with one hostile point at each position: the
// pass names exactly that position, across lane groups and the short
// scalar tail; a clean batch passes whole.
TEST(SubgroupAdmissionTest, FirstFailureAtEveryPosition) {
  Rng rng(2504);
  const std::vector<G1> good = GeneratorMultiples(&rng, 17);
  const G1 h = hostile::NonSubgroupG1();
  const G1 t = OrderThree(false);
  for (std::size_t n = 1; n <= 17; ++n) {
    std::vector<G1> pts(good.begin(), good.begin() + n);
    ASSERT_EQ(FirstOutsideG1Subgroup(pts), n);
    for (std::size_t pos = 0; pos < n; ++pos) {
      std::vector<G1> bad = pts;
      bad[pos] = (pos % 2 == 0) ? h : t;
      EXPECT_EQ(FirstOutsideG1Subgroup(bad), pos) << "n=" << n;
      if (pos + 1 < n) {
        bad[n - 1] = h;  // a later bad point does not win
        EXPECT_EQ(FirstOutsideG1Subgroup(bad), pos) << "n=" << n;
      }
    }
  }
}

// The same through the decoder: a serialized run of points read with an
// admission attached is flagged at the end of the scope, with ReadG1's own
// error, and only then.
TEST(SubgroupAdmissionTest, AdmissionFlagsReaderAtScopeEnd) {
  Rng rng(2505);
  std::vector<G1> pts = GeneratorMultiples(&rng, 11);
  pts[6] = hostile::NonSubgroupG1();
  common::ByteWriter w;
  for (const G1& p : pts) WriteG1(&w, p);
  w.PutU32(0xffffffffu);  // then an oversized count
  common::ByteReader r(w.data());
  {
    PointAdmission admit(&r);
    {
      PointAdmission nested(&r);  // an inner scope does not run the pass
      for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(ReadG1(&r), pts[i]);
      }
    }
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r.CheckCount(r.GetU32(), 1));
    EXPECT_EQ(r.error(), common::WireError::kLengthOverflow);
  }
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), common::WireError::kPointNotInSubgroup);
  EXPECT_STREQ(r.error_detail(), "G1 point outside prime-order subgroup");
  EXPECT_EQ(r.admission(), nullptr);

  // Without an admission the first bad point stops the read, as before.
  common::ByteReader inline_r(w.data());
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(ReadG1(&inline_r), pts[i]);
  EXPECT_TRUE(ReadG1(&inline_r).IsInfinity());
  EXPECT_EQ(inline_r.error(), common::WireError::kPointNotInSubgroup);
}

}  // namespace
}  // namespace apqa::crypto
