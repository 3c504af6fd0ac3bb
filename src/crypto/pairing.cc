#include "crypto/pairing.h"

#include "crypto/pairing_prepared.h"

namespace apqa::crypto {

namespace {

// f^x for the (negative) BLS parameter x = -kBlsParamAbs, valid only in the
// cyclotomic subgroup where inversion is conjugation.
Fp12 ExpByBlsX(const Fp12& f) {
  u64 e[1] = {kBlsParamAbs};
  return f.PowCyclotomic(std::span<const u64>(e, 1)).Conjugate();
}

// Easy part f^((p^6 - 1)(p^2 + 1)); lands in the cyclotomic
// subgroup, where Granger-Scott squarings and conjugation-inverse apply.
Fp12 EasyPart(const Fp12& f) {
  Fp12 t = f.Conjugate() * f.Inverse();
  return t.Frobenius().Frobenius() * t;
}

}  // namespace

GT FinalExponentiation(const GT& f) {
  // Hard part via the BLS12 parameter addition chain (Hayashida-Hayasaka-
  // Teruya): computes r^((x-1)^2 (x+p) (x^2+p^2-1) + 3), which equals
  // r^(3 (p^4-p^2+1)/r). The extra cube is a fixed exponent coprime to the
  // group order, so the map remains a non-degenerate bilinear pairing and
  // IsOne checks are unaffected; this is the same convention production
  // BLS12-381 libraries use. Four exponentiations by the 64-bit |x| replace
  // the generic ~1270-bit windowed exponentiation (the reference library's
  // FinalExponentiationGeneric keeps the exact-exponent path as the audit
  // oracle).
  GT r = EasyPart(f);
  GT y0 = r.CyclotomicSquare();             // r^2
  GT y1 = ExpByBlsX(r);                     // r^x
  GT y2 = r.Conjugate();                    // r^-1
  y1 = y1 * y2;                             // r^(x-1)
  y2 = ExpByBlsX(y1);                       // r^(x(x-1))
  y1 = y1.Conjugate();                      // r^-(x-1)
  y1 = y1 * y2;                             // r^((x-1)^2)
  y2 = ExpByBlsX(y1);                       // r^(x(x-1)^2)
  y1 = y1.Frobenius();                      // r^(p(x-1)^2)
  y1 = y1 * y2;                             // r^((x-1)^2 (x+p))
  r = r * y0;                               // r^3
  y0 = ExpByBlsX(y1);                       // r^(x(x-1)^2 (x+p))
  y2 = ExpByBlsX(y0);                       // r^(x^2(x-1)^2 (x+p))
  y0 = y1.Frobenius().Frobenius();          // r^(p^2(x-1)^2 (x+p))
  y1 = y1.Conjugate();                      // r^-((x-1)^2 (x+p))
  y1 = y1 * y2;                             // r^((x^2-1)(x-1)^2 (x+p))
  y1 = y1 * y0;                             // r^((x^2+p^2-1)(x-1)^2 (x+p))
  return r * y1;
}

GT Pairing(const G1& p, const G2& q) { return MultiPairing({{p, q}}); }

GT MultiPairing(const std::vector<std::pair<G1, G2>>& pairs) {
  return MultiPairingPrepared({}, pairs);
}

}  // namespace apqa::crypto
