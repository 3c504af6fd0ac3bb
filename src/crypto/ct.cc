#include "crypto/ct.h"

#include "crypto/msm.h"

namespace apqa::crypto {

namespace ct_trace {
void (*hook)(char op, unsigned step) = nullptr;
}  // namespace ct_trace

G1 CtG1Mul(const SecretFr& k) { return G1GeneratorTable().MulCt(k); }

G2 CtG2Mul(const SecretFr& k) { return G2GeneratorTable().MulCt(k); }

Fp12 CtPow(const Fp12& base, const SecretFr& k) {
  const Limbs<4> e = k.ct_ref().ToCanonical();
  Fp12 acc = Fp12::One();
  // Fixed 255 iterations (Fr < 2^255): square always, multiply always,
  // keep the product only when the exponent bit is set.
  for (unsigned i = 255; i-- > 0;) {
    ct_trace::Emit('P', i);
    acc = acc.Square();
    Fp12 with_mul = acc * base;
    u64 bit = (e[i / 64] >> (i % 64)) & 1u;
    CtCondAssignObj(&acc, with_mul, u64{0} - bit);
  }
  return acc;
}

}  // namespace apqa::crypto
