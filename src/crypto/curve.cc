#include "crypto/curve.h"

#include <cstdlib>

#include "crypto/bigint.h"
#include "crypto/msm.h"

namespace apqa::crypto {

namespace {

Fp FpFromLimbs(const Limbs<6>& l) { return Fp::FromCanonical(l); }

}  // namespace

const G1& G1Generator() {
  static const G1 g = [] {
    Fp x = FpFromLimbs({0xfb3af00adb22c6bb, 0x6c55e83ff97a1aef,
                        0xa14e3a3f171bac58, 0xc3688c4f9774b905,
                        0x2695638c4fa9ac0f, 0x17f1d3a73197d794});
    Fp y = FpFromLimbs({0x0caa232946c5e7e1, 0xd03cc744a2888ae4,
                        0x00db18cb2c04b3ed, 0xfcf5e095d5d00af6,
                        0xa09e30ed741d8ae4, 0x08b3f481e3aaa0f1});
    return G1::FromAffine(x, y);
  }();
  return g;
}

const G2& G2Generator() {
  static const G2 g = [] {
    Fp2 x{FpFromLimbs({0xd48056c8c121bdb8, 0x0bac0326a805bbef,
                       0xb4510b647ae3d177, 0xc6e47ad4fa403b02,
                       0x260805272dc51051, 0x024aa2b2f08f0a91}),
          FpFromLimbs({0xe5ac7d055d042b7e, 0x334cf11213945d57,
                       0xb5da61bbdc7f5049, 0x596bd0d09920b61a,
                       0x7dacd3a088274f65, 0x13e02b6052719f60})};
    Fp2 y{FpFromLimbs({0xe193548608b82801, 0x923ac9cc3baca289,
                       0x6d429a695160d12c, 0xadfd9baa8cbdd3a7,
                       0x8cc9cdc6da2e351a, 0x0ce5d527727d6e11}),
          FpFromLimbs({0xaaa9075ff05f79be, 0x3f370d275cec1da1,
                       0x267492ab572e99ab, 0xcb3e287e85a763af,
                       0x32acd2b02bc28b99, 0x0606c4a02ea734cc})};
    return G2::FromAffine(x, y);
  }();
  return g;
}

const PsiCoeffs& G2PsiCoeffs() {
  static const PsiCoeffs c = [] {
    // c1 = xi^-((p-1)/3), c2 = xi^-((p-1)/2) from exact integer exponents
    // (p = 1 mod 6). Validating psi(G) == [z]G on the generator turns a
    // wrong coefficient into a startup failure rather than a subgroup check
    // that rejects honest points or accepts hostile ones.
    BigInt p = BigInt::FromLimbs(FpTag::kModulus.data(), FpTag::kLimbs);
    auto xi_pow = [&](unsigned d) {
      BigInt e = (p - BigInt(1)) / BigInt(d);
      u64 el[FpTag::kLimbs];
      e.ToLimbs(el, FpTag::kLimbs);
      return Fp2::Xi().Pow(std::span<const u64>(el, FpTag::kLimbs)).Inverse();
    };
    PsiCoeffs pc{xi_pow(3), xi_pow(2)};
    const G2& g = G2Generator();
    // psi spelled out: G2::Psi() would re-enter this initializer.
    G2 image{g.x.Conjugate() * pc.c1, g.y.Conjugate() * pc.c2,
             g.z.Conjugate()};
    if (!(image == -g.MulByAbsZ())) std::abort();
    return pc;
  }();
  return c;
}

Fp G1CurveB() { return Fp::FromU64(4); }

Fp2 G2CurveB() { return {Fp::FromU64(4), Fp::FromU64(4)}; }

G1 G1Mul(const Fr& k) { return G1GeneratorTable().Mul(k); }

G2 G2Mul(const Fr& k) { return G2GeneratorTable().Mul(k); }

}  // namespace apqa::crypto
