// Tests for binary serialization: primitives, group elements, ABS
// signatures, and robustness of readers against truncated or corrupt input.
#include <gtest/gtest.h>

#include "abs/abs.h"
#include "common/serde.h"
#include "crypto/rng.h"
#include "crypto/pairing.h"
#include "crypto/serde.h"
#include "test_hostile_points.h"

namespace apqa {
namespace {

using common::ByteReader;
using common::ByteWriter;

TEST(ByteIoTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutString("hello");
  w.PutString("");
  ByteReader r(w.data());
  EXPECT_EQ(r.GetU8(), 0xab);
  EXPECT_EQ(r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetString(), "hello");
  EXPECT_EQ(r.GetString(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteIoTest, TruncationFlagsError) {
  ByteWriter w;
  w.PutU64(42);
  ByteReader r(w.data().data(), 3);
  EXPECT_EQ(r.GetU64(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(ByteIoTest, OversizedStringLengthFlagsError) {
  ByteWriter w;
  w.PutU32(1000000);  // claims a huge string with no payload
  ByteReader r(w.data());
  EXPECT_EQ(r.GetString(), "");
  EXPECT_FALSE(r.ok());
}

TEST(GroupSerdeTest, FrRoundTrip) {
  crypto::Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    crypto::Fr v = rng.NextFr();
    ByteWriter w;
    crypto::WriteFr(&w, v);
    EXPECT_EQ(w.size(), 32u);
    ByteReader r(w.data());
    EXPECT_EQ(crypto::ReadFr(&r), v);
  }
}

TEST(GroupSerdeTest, G1RoundTripIncludingInfinity) {
  crypto::Rng rng(2);
  ByteWriter w;
  crypto::G1 p = crypto::G1Mul(rng.NextNonZeroFr());
  crypto::WriteG1(&w, p);
  crypto::WriteG1(&w, crypto::G1::Infinity());
  ByteReader r(w.data());
  EXPECT_EQ(crypto::ReadG1(&r), p);
  EXPECT_TRUE(crypto::ReadG1(&r).IsInfinity());
  EXPECT_TRUE(r.AtEnd());
}

TEST(GroupSerdeTest, G2RoundTrip) {
  crypto::Rng rng(3);
  crypto::G2 p = crypto::G2Mul(rng.NextNonZeroFr());
  ByteWriter w;
  crypto::WriteG2(&w, p);
  EXPECT_EQ(w.size(), 1u + 4 * 48);
  ByteReader r(w.data());
  EXPECT_EQ(crypto::ReadG2(&r), p);
}

TEST(GroupSerdeTest, GTRoundTrip) {
  crypto::Rng rng(4);
  crypto::GT f = crypto::Pairing(crypto::G1Mul(rng.NextNonZeroFr()),
                                 crypto::G2Mul(rng.NextNonZeroFr()));
  ByteWriter w;
  crypto::WriteGT(&w, f);
  EXPECT_EQ(w.size(), 12u * 48);
  ByteReader r(w.data());
  EXPECT_EQ(crypto::ReadGT(&r), f);
}

TEST(GroupSerdeTest, HashToFrDeterministicAndDomainSeparated) {
  EXPECT_EQ(crypto::HashToFr("abc"), crypto::HashToFr("abc"));
  EXPECT_NE(crypto::HashToFr("abc"), crypto::HashToFr("abd"));
  EXPECT_NE(crypto::HashToFr(""), crypto::HashToFr("x"));
}

// --- Hostile-input rejection ----------------------------------------------
//
// Every reader on the untrusted path must flag precise WireErrors rather
// than silently coercing bad bytes into some valid-looking element.

TEST(HostileSerdeTest, NonCanonicalFrRejected) {
  std::vector<std::uint8_t> buf(32, 0xff);  // 2^256 - 1 >= r
  ByteReader r(buf.data(), buf.size());
  EXPECT_TRUE(crypto::ReadFr(&r).IsZero());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), common::WireError::kNonCanonical);
}

TEST(HostileSerdeTest, NonCanonicalFpRejected) {
  std::vector<std::uint8_t> buf(48, 0xff);
  ByteReader r(buf.data(), buf.size());
  EXPECT_TRUE(crypto::ReadFp(&r).IsZero());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), common::WireError::kNonCanonical);
}

TEST(HostileSerdeTest, BadInfinityFlagRejected) {
  ByteWriter w;
  w.PutU8(2);  // only 0 (infinity) and 1 (affine) are legal
  ByteReader r(w.data());
  EXPECT_TRUE(crypto::ReadG1(&r).IsInfinity());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), common::WireError::kNonCanonical);
}

TEST(HostileSerdeTest, OffCurveG1Rejected) {
  crypto::Rng rng(6);
  crypto::G1 p = crypto::G1Mul(rng.NextNonZeroFr());
  crypto::Fp ax, ay;
  p.ToAffine(&ax, &ay);
  ByteWriter w;
  w.PutU8(1);
  crypto::WriteFp(&w, ax);
  crypto::WriteFp(&w, ay + crypto::Fp::One());  // y' != ±y: off curve
  ByteReader r(w.data());
  EXPECT_TRUE(crypto::ReadG1(&r).IsInfinity());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), common::WireError::kPointNotOnCurve);
}

TEST(HostileSerdeTest, NonSubgroupG1Rejected) {
  crypto::G1 p = crypto::hostile::NonSubgroupG1();
  ASSERT_TRUE(p.OnCurve(crypto::G1CurveB()));
  ASSERT_FALSE(p.InPrimeOrderSubgroup());
  crypto::Fp ax, ay;
  p.ToAffine(&ax, &ay);
  ByteWriter w;
  w.PutU8(1);
  crypto::WriteFp(&w, ax);
  crypto::WriteFp(&w, ay);
  ByteReader r(w.data());
  EXPECT_TRUE(crypto::ReadG1(&r).IsInfinity());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), common::WireError::kPointNotInSubgroup);
}

TEST(HostileSerdeTest, NonSubgroupG2Rejected) {
  crypto::G2 p = crypto::hostile::NonSubgroupG2();
  ASSERT_TRUE(p.OnCurve(crypto::G2CurveB()));
  ASSERT_FALSE(p.InPrimeOrderSubgroup());
  crypto::Fp2 ax, ay;
  p.ToAffine(&ax, &ay);
  ByteWriter w;
  w.PutU8(1);
  crypto::WriteFp(&w, ax.c0);
  crypto::WriteFp(&w, ax.c1);
  crypto::WriteFp(&w, ay.c0);
  crypto::WriteFp(&w, ay.c1);
  ByteReader r(w.data());
  EXPECT_TRUE(crypto::ReadG2(&r).IsInfinity());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), common::WireError::kPointNotInSubgroup);
}

TEST(HostileSerdeTest, TruncatedG2AtEveryBoundaryFlagsError) {
  crypto::Rng rng(7);
  crypto::G2 p = crypto::G2Mul(rng.NextNonZeroFr());
  ByteWriter w;
  crypto::WriteG2(&w, p);
  for (std::size_t n = 0; n < w.size(); ++n) {
    ByteReader r(w.data().data(), n);
    crypto::ReadG2(&r);
    EXPECT_FALSE(r.ok()) << "prefix length " << n;
  }
}

TEST(GroupSerdeTest, SerializationIsCanonical) {
  // Two different Jacobian representations of the same point serialize
  // identically (affine normalization).
  crypto::Rng rng(5);
  crypto::Fr k = rng.NextNonZeroFr();
  crypto::G1 a = crypto::G1Mul(k);
  crypto::G1 b = crypto::G1Mul(k).Double() - crypto::G1Mul(k);
  ASSERT_EQ(a, b);
  ByteWriter wa, wb;
  crypto::WriteG1(&wa, a);
  crypto::WriteG1(&wb, b);
  EXPECT_EQ(wa.data(), wb.data());
}

// Signature::Serialize normalizes each group's points with one shared
// inversion. Its bytes must equal writing every component on its own with
// WriteG1/WriteG2 — infinity included, which the batch normalization skips
// — and SerializedSize must count them without serializing.
TEST(SignatureSerdeTest, BatchNormalizedBytesMatchPerPointWrites) {
  crypto::Rng rng(61);
  // Sums of two table multiples: Jacobian points with Z != 1.
  auto g1 = [&] {
    crypto::G1 a = crypto::G1Mul(rng.NextNonZeroFr());
    return a + crypto::G1Mul(rng.NextNonZeroFr());
  };
  auto g2 = [&] {
    crypto::G2 a = crypto::G2Mul(rng.NextNonZeroFr());
    return a + crypto::G2Mul(rng.NextNonZeroFr());
  };
  abs::Signature full;
  rng.Fill(full.tau.data(), full.tau.size());
  full.epoch = 7;
  full.y = g1();
  full.w = g1();
  full.s = {g1(), crypto::G1::Infinity(), g1(), g1()};
  full.p = {crypto::G2::Infinity(), g2(), crypto::G2::Infinity(), g2()};
  abs::Signature sparse;
  sparse.y = g1();
  sparse.w = crypto::G1::Infinity();
  sparse.p = {crypto::G2::Infinity()};
  abs::Signature empty;  // every point at infinity, no rows or columns

  for (const abs::Signature* sig : {&full, &sparse, &empty}) {
    ByteWriter ref;
    ref.PutBytes(sig->tau.data(), sig->tau.size());
    ref.PutU64(sig->epoch);
    crypto::WriteG1(&ref, sig->y);
    crypto::WriteG1(&ref, sig->w);
    ref.PutU32(static_cast<std::uint32_t>(sig->s.size()));
    for (const crypto::G1& e : sig->s) crypto::WriteG1(&ref, e);
    ref.PutU32(static_cast<std::uint32_t>(sig->p.size()));
    for (const crypto::G2& e : sig->p) crypto::WriteG2(&ref, e);

    ByteWriter got;
    sig->Serialize(&got);
    EXPECT_EQ(got.data(), ref.data());
    EXPECT_EQ(sig->SerializedSize(), got.size());

    ByteReader r(got.data());
    abs::Signature back = abs::Signature::Deserialize(&r);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(back.y, sig->y);
    EXPECT_EQ(back.w, sig->w);
    EXPECT_EQ(back.s, sig->s);
    EXPECT_EQ(back.p, sig->p);
  }
  EXPECT_EQ(empty.SerializedSize(), abs::Signature::kMinSerializedSize);
}

}  // namespace
}  // namespace apqa
