#include "crypto/serde.h"

#include <algorithm>

#include "crypto/mont_accel.h"
#include "crypto/sha256.h"

namespace apqa::crypto {

namespace {

constexpr const char* kG1NotInSubgroup =
    "G1 point outside prime-order subgroup";

// A lane pass costs the same for one point as for eight, a little more
// than one scalar test; a single point runs the scalar test instead.
constexpr std::size_t kMinLanePoints = 2;

}  // namespace

const accel::LaneConsts& LaneConstants() {
  static const accel::LaneConsts consts = [] {
    accel::LaneConsts c{};
    auto put = [](const Limbs<6>& l, u64* out) {
      std::copy(l.begin(), l.end(), out);
    };
    put(Fp::Modulus(), c.p);
    const u64 e448 = 448;
    put(Fp::FromU64(2).Pow(std::span<const u64>(&e448, 1)).ToCanonical(),
        c.r448);
    put(Fp::One().MontgomeryRepr(), c.one);
    const Fp& beta = GlvEndo<Fp>::Beta();
    put(beta.MontgomeryRepr(), c.beta);
    put((beta * beta).MontgomeryRepr(), c.beta2);
    const Fp2& g2_beta = GlvEndo<Fp2>::Beta();
    put(g2_beta.c0.MontgomeryRepr(), c.g2_beta);
    put(g2_beta.c1.MontgomeryRepr(), c.g2_beta + 6);
    c.abs_z = kBlsParamAbs;
    return c;
  }();
  return consts;
}

void WriteFr(common::ByteWriter* w, const Fr& v) {
  Limbs<4> l = v.ToCanonical();
  for (u64 x : l) w->PutU64(x);
}

Fr ReadFr(common::ByteReader* r) {
  Limbs<4> l;
  for (auto& x : l) x = r->GetU64();
  if (!r->ok()) return Fr::Zero();
  if (CompareLimbs<4>(l, Fr::Modulus()) >= 0) {
    r->MarkBad(common::WireError::kNonCanonical, "Fr element not reduced");
    return Fr::Zero();
  }
  return Fr::FromCanonical(l);
}

void WriteFp(common::ByteWriter* w, const Fp& v) {
  Limbs<6> l = v.ToCanonical();
  for (u64 x : l) w->PutU64(x);
}

Fp ReadFp(common::ByteReader* r) {
  Limbs<6> l;
  for (auto& x : l) x = r->GetU64();
  if (!r->ok()) return Fp::Zero();
  if (CompareLimbs<6>(l, Fp::Modulus()) >= 0) {
    r->MarkBad(common::WireError::kNonCanonical, "Fp element not reduced");
    return Fp::Zero();
  }
  return Fp::FromCanonical(l);
}

void WriteG1(common::ByteWriter* w, const G1& p) {
  if (p.IsInfinity()) {
    w->PutU8(0);
    return;
  }
  w->PutU8(1);
  Fp ax, ay;
  p.ToAffine(&ax, &ay);
  WriteFp(w, ax);
  WriteFp(w, ay);
}

G1 ReadG1(common::ByteReader* r) {
  std::uint8_t flag = r->GetU8();
  if (flag == 0) return G1::Infinity();
  if (flag != 1) {
    r->MarkBad(common::WireError::kNonCanonical, "bad G1 infinity flag");
    return G1::Infinity();
  }
  Fp ax = ReadFp(r);
  Fp ay = ReadFp(r);
  if (!r->ok()) return G1::Infinity();
  G1 p = G1::FromAffine(ax, ay);
  if (!p.OnCurve(G1CurveB())) {
    r->MarkBad(common::WireError::kPointNotOnCurve, "G1 point off curve");
    return G1::Infinity();
  }
  if (PointAdmission* admission = r->admission()) {
    admission->Queue(p);
    return p;
  }
  if (!p.InPrimeOrderSubgroup()) {
    r->MarkBad(common::WireError::kPointNotInSubgroup, kG1NotInSubgroup);
    return G1::Infinity();
  }
  return p;
}

void G1InSubgroupX8(std::span<const G1> pts, bool* in) {
  const std::size_t n = std::min<std::size_t>(pts.size(), 8);
  if (!accel::IfmaLanesActive()) {
    for (std::size_t i = 0; i < n; ++i) in[i] = pts[i].InPrimeOrderSubgroup();
    return;
  }
  u64 xs[8][6], ys[8][6];
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(pts[i].x.MontgomeryRepr().begin(), 6, xs[i]);
    std::copy_n(pts[i].y.MontgomeryRepr().begin(), 6, ys[i]);
  }
  accel::LaneVerdict v[8];
  accel::G1SubgroupCheckX8(LaneConstants(), xs, ys, static_cast<int>(n), v);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = v[i] == accel::LaneVerdict::kRecheck
                ? pts[i].InPrimeOrderSubgroup()
                : v[i] == accel::LaneVerdict::kIn;
  }
}

std::size_t FirstOutsideG1Subgroup(std::span<const G1> pts) {
  for (std::size_t i = 0; i < pts.size(); i += 8) {
    const std::size_t n = std::min<std::size_t>(pts.size() - i, 8);
    if (!accel::IfmaLanesActive() || n < kMinLanePoints) {
      for (std::size_t k = i; k < i + n; ++k) {
        if (!pts[k].InPrimeOrderSubgroup()) return k;
      }
      continue;
    }
    bool in[8];
    G1InSubgroupX8(pts.subspan(i, n), in);
    for (std::size_t k = 0; k < n; ++k) {
      if (!in[k]) return i + k;
    }
  }
  return pts.size();
}

PointAdmission::PointAdmission(common::ByteReader* r)
    : r_(r), owner_(r->admission() == nullptr) {
  if (owner_) r_->set_admission(this);
}

PointAdmission::~PointAdmission() {
  if (!owner_) return;
  r_->set_admission(nullptr);
  if (FirstOutsideG1Subgroup(g1_) < g1_.size()) {
    r_->MarkBadEarlier(common::WireError::kPointNotInSubgroup,
                       kG1NotInSubgroup);
  }
}

void WriteG2(common::ByteWriter* w, const G2& p) {
  if (p.IsInfinity()) {
    w->PutU8(0);
    return;
  }
  w->PutU8(1);
  Fp2 ax, ay;
  p.ToAffine(&ax, &ay);
  WriteFp(w, ax.c0);
  WriteFp(w, ax.c1);
  WriteFp(w, ay.c0);
  WriteFp(w, ay.c1);
}

G2 ReadG2(common::ByteReader* r) {
  std::uint8_t flag = r->GetU8();
  if (flag == 0) return G2::Infinity();
  if (flag != 1) {
    r->MarkBad(common::WireError::kNonCanonical, "bad G2 infinity flag");
    return G2::Infinity();
  }
  Fp c00 = ReadFp(r);
  Fp c01 = ReadFp(r);
  Fp c10 = ReadFp(r);
  Fp c11 = ReadFp(r);
  if (!r->ok()) return G2::Infinity();
  Fp2 ax{c00, c01};
  Fp2 ay{c10, c11};
  G2 p = G2::FromAffine(ax, ay);
  if (!p.OnCurve(G2CurveB())) {
    r->MarkBad(common::WireError::kPointNotOnCurve, "G2 point off curve");
    return G2::Infinity();
  }
  if (!p.InPrimeOrderSubgroup()) {
    r->MarkBad(common::WireError::kPointNotInSubgroup,
               "G2 point outside prime-order subgroup");
    return G2::Infinity();
  }
  return p;
}

void WriteGT(common::ByteWriter* w, const Fp12& v) {
  const Fp* coeffs[12] = {&v.c0.c0.c0, &v.c0.c0.c1, &v.c0.c1.c0, &v.c0.c1.c1,
                          &v.c0.c2.c0, &v.c0.c2.c1, &v.c1.c0.c0, &v.c1.c0.c1,
                          &v.c1.c1.c0, &v.c1.c1.c1, &v.c1.c2.c0, &v.c1.c2.c1};
  for (const Fp* f : coeffs) WriteFp(w, *f);
}

Fp12 ReadGT(common::ByteReader* r) {
  Fp12 v;
  Fp* coeffs[12] = {&v.c0.c0.c0, &v.c0.c0.c1, &v.c0.c1.c0, &v.c0.c1.c1,
                    &v.c0.c2.c0, &v.c0.c2.c1, &v.c1.c0.c0, &v.c1.c0.c1,
                    &v.c1.c1.c0, &v.c1.c1.c1, &v.c1.c2.c0, &v.c1.c2.c1};
  for (Fp* f : coeffs) *f = ReadFp(r);
  return v;
}

Fr HashToFr(const void* data, std::size_t n) {
  Digest d = Sha256::Hash(data, n);
  Limbs<4> l;
  for (int i = 0; i < 4; ++i) {
    u64 v = 0;
    for (int j = 0; j < 8; ++j) v |= static_cast<u64>(d[8 * i + j]) << (8 * j);
    l[i] = v;
  }
  l[3] &= 0x7fffffffffffffffULL;
  return Fr::FromCanonicalReduce(l);
}

Fr HashToFr(const std::string& s) { return HashToFr(s.data(), s.size()); }

}  // namespace apqa::crypto
