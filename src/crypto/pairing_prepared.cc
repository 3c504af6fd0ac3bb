#include "crypto/pairing_prepared.h"

#include "crypto/msm.h"

namespace apqa::crypto {

namespace {

// Folds one cached line, evaluated at the affine G1 point (xp, yp), into
// the Miller accumulator via the sparse product.
inline void FoldLine(Fp12* f, const G2LineCoeffs& c, const Fp& xp,
                     const Fp& yp) {
  *f = f->MulBySparseLine(c.c0, c.c1.MulByFp(xp), c.c2.MulByFp(yp));
}

int ParamMsb() {
  int msb = 63;
  while (!((kBlsParamAbs >> msb) & 1)) --msb;
  return msb;
}

}  // namespace

G2Prepared::G2Prepared(const G2& q) {
  if (q.IsInfinity()) return;
  Fp2 xq, yq;
  q.ToAffine(&xq, &yq);

  // Homogeneous projective running point T = (X : Y : Z), x = X/Z, y = Y/Z.
  // The step formulas below are inversion-free; each stored line differs
  // from the affine chord/tangent line by an Fp2 scale factor
  // (-2YZ on a doubling, X - x_Q Z on an addition), which the final
  // exponentiation kills: gcd of the hard-part exponent with p^2 - 1 is 1.
  Fp2 x = xq, y = yq, z = Fp2::One();
  static const Fp kTwoInv = (Fp::One() + Fp::One()).Inverse();
  const Fp2 b_twist = G2CurveB();

  const int msb = ParamMsb();
  coeffs_.reserve(static_cast<std::size_t>(msb) +
                  static_cast<std::size_t>(__builtin_popcountll(kBlsParamAbs)) -
                  1);
  for (int i = msb - 1; i >= 0; --i) {
    {
      // Doubling step: line coefficients (e - b, 3X^2, -h), the affine
      // tangent scaled by -2YZ.
      Fp2 a = (x * y).MulByFp(kTwoInv);
      Fp2 b = y.Square();
      Fp2 c = z.Square();
      Fp2 e = b_twist * (c + c + c);
      Fp2 e3 = e + e + e;
      Fp2 g = (b + e3).MulByFp(kTwoInv);
      Fp2 h = (y + z).Square() - (b + c);
      Fp2 j = x.Square();
      Fp2 e2 = e.Square();
      coeffs_.push_back({e - b, j + j + j, -h});
      x = a * (b - e3);
      y = g.Square() - (e2 + e2 + e2);
      z = b * h;
    }
    if ((kBlsParamAbs >> i) & 1) {
      // Mixed addition T += Q with Q affine: line coefficients
      // (theta x_Q - lambda y_Q, -theta, lambda), the affine chord scaled
      // by lambda = X - x_Q Z.
      Fp2 theta = y - yq * z;
      Fp2 lambda = x - xq * z;
      Fp2 c = theta.Square();
      Fp2 d = lambda.Square();
      Fp2 e = lambda * d;
      Fp2 f = z * c;
      Fp2 g = x * d;
      Fp2 h = e + f - (g + g);
      coeffs_.push_back({theta * xq - lambda * yq, -theta, lambda});
      x = lambda * h;
      y = theta * (g - h) - e * y;
      z = z * e;
    }
  }
}

namespace {

// The one Miller-loop body. Every table walks the same |u|-bit schedule, so
// all pairs run in lockstep under one accumulator: a single Fp12 squaring
// per step, then one sparse line fold per pair. `g1s` must be affine and
// free of infinity, and no table may be the prepared infinity. Returns the
// Miller value before the final exponentiation.
GT MillerLoopLockstep(const std::vector<G1>& g1s,
                      const std::vector<const G2Prepared*>& tabs) {
  Fp12 f = Fp12::One();
  std::size_t idx = 0;
  const int msb = ParamMsb();
  for (int i = msb - 1; i >= 0; --i) {
    f = f.Square();
    for (std::size_t k = 0; k < g1s.size(); ++k) {
      FoldLine(&f, tabs[k]->coeffs()[idx], g1s[k].x, g1s[k].y);
    }
    ++idx;
    if ((kBlsParamAbs >> i) & 1) {
      for (std::size_t k = 0; k < g1s.size(); ++k) {
        FoldLine(&f, tabs[k]->coeffs()[idx], g1s[k].x, g1s[k].y);
      }
      ++idx;
    }
  }
  // u < 0: conjugate once for the lockstep product.
  return f.Conjugate();
}

}  // namespace

GT MillerLoopPrepared(const G1& p, const G2Prepared& q) {
  if (p.IsInfinity() || q.IsInfinity()) return GT::One();
  std::vector<G1> g1s = {p};
  BatchToAffine<Fp>(std::span<G1>(g1s));
  return MillerLoopLockstep(g1s, {&q});
}

GT PairWith(const G1& p, const G2Prepared& q) {
  return FinalExponentiation(MillerLoopPrepared(p, q));
}

GT MultiPairingPrepared(const std::vector<PreparedPair>& prepared,
                        const std::vector<std::pair<G1, G2>>& fresh) {
  // Fresh G2 points get a locally-built table so every pair walks the same
  // coefficient schedule; reserve up front so &local.back() stays stable.
  std::vector<G2Prepared> local;
  local.reserve(fresh.size());

  std::vector<G1> g1s;
  std::vector<const G2Prepared*> tabs;
  g1s.reserve(prepared.size() + fresh.size());
  tabs.reserve(prepared.size() + fresh.size());
  for (const auto& pp : prepared) {
    // e(P, O) = e(O, Q) = 1: skip.
    if (pp.p.IsInfinity() || pp.q == nullptr || pp.q->IsInfinity()) continue;
    g1s.push_back(pp.p);
    tabs.push_back(pp.q);
  }
  for (const auto& [p, q] : fresh) {
    if (p.IsInfinity() || q.IsInfinity()) continue;
    local.emplace_back(q);
    g1s.push_back(p);
    tabs.push_back(&local.back());
  }
  if (g1s.empty()) return GT::One();
  BatchToAffine<Fp>(std::span<G1>(g1s));
  return FinalExponentiation(MillerLoopLockstep(g1s, tabs));
}

}  // namespace apqa::crypto
