// Runtime-dispatched accelerated Montgomery kernels: the multiply and the
// modular add/subtract next to it.
//
// The generic CIOS multiply in prime_field.h is portable and branch-free but
// serializes every partial product through one u128 carry chain. On x86-64
// parts with BMI2 (mulx: full 64x64 multiply without touching flags) and ADX
// (adcx/adox: two independent add-with-carry chains) the same 6x64 Montgomery
// reduction runs with the low-half and high-half accumulations in parallel
// chains, roughly doubling multiply throughput — and every pairing, MSM and
// ABS row bottoms out there. The modular add/subtract kernels exist because
// GCC compiles the portable u128 carry loops to non-unrolled code with two
// add/adc per limb and stack spills: a chained portable Fp add costs about
// half a Montgomery multiply, and the curve and tower formulas do about as
// many additions as multiplications.
//
// This header is intrinsics-free: it declares the dispatch query and the raw
// kernel entry points, both defined in mont_accel.cc — the single translation
// unit allowed to contain __asm__/vendor intrinsics (lint rule R16). The
// portable kernel in prime_field.h stays always-compiled as the fallback and
// the differential oracle (tests/field_test.cc, bench mont_kernel_bitmatch).
//
// Dispatch is decided once per process:
//   - APQA_FORCE_PORTABLE=1 in the environment pins the portable kernel
//     (scripts/check.sh re-runs the field/curve/msm/pairing suites this way
//     so the fallback arm cannot rot on BMI2 builders);
//   - otherwise CPUID must report both BMI2 and ADX.
// The decision is data-independent, so the constant-time discipline of
// prime_field.h is unaffected: whichever kernel is selected runs a fixed
// instruction sequence with a branch-free final reduction.
#ifndef APQA_CRYPTO_MONT_ACCEL_H_
#define APQA_CRYPTO_MONT_ACCEL_H_

#include "crypto/limbs.h"

namespace apqa::crypto::accel {

// True when this build carries the BMI2/ADX kernel at all (x86-64 GCC/Clang).
bool MontAccelCompiled();

// One-shot detection: kernel compiled in, CPUID reports BMI2+ADX, and
// APQA_FORCE_PORTABLE is absent/0 in the environment. Defined in
// mont_accel.cc; called once through the cached inline wrapper below.
bool DetectMontAccel();

// Cached dispatch decision. The function-local static costs one predictable
// guard check per call — noise next to a 6x64 Montgomery multiply, and the
// same pattern PrimeField::Consts() already pays on every operation. Forced
// inline: left to itself GCC emits it out of line, and a call per field
// add is ~2% of a range query.
__attribute__((always_inline)) inline bool MontAccelActive() {
  static const bool active = DetectMontAccel();
  return active;
}

// r = a * b * 2^-384 mod p for 6-limb operands in [0, p). `inv` is
// -p^-1 mod 2^64. Preconditions match the portable CIOS kernel; the result
// is bit-identical to it (asserted by tests and the perf-smoke gate). Must
// only be called when MontAccelActive() is true.
void MontMul384(const u64* a, const u64* b, const u64* p, u64 inv, u64* r);

// Two independent products in one call: r1 = a1*b1*R^-1, r2 = a2*b2*R^-1.
// Keeps the modulus limbs hot in registers across both reductions — the
// lane-friendly shape Fp2's Karatsuba multiply and squaring want (their two
// component products are independent). Same preconditions as MontMul384.
void MontMulPair384(const u64* a1, const u64* b1, const u64* a2,
                    const u64* b2, const u64* p, u64 inv, u64* r1, u64* r2);

// r = a + b mod p and r = a - b mod p for 6-limb operands in [0, p): plain
// add/adc (sub/sbb) chains with a fixed-sequence final correction (a cmovc
// select for the sum, a masked add of p for the difference). Bit-identical
// to PrimeField's portable u128 loops (AddPortable/SubPortable); `r` may
// alias `a` or `b`. Only base-ISA instructions, but gated on the same
// MontAccelActive() dispatch as the multiply so one switch pins every
// portable arm.
void ModAdd384(const u64* a, const u64* b, const u64* p, u64* r);
void ModSub384(const u64* a, const u64* b, const u64* p, u64* r);

}  // namespace apqa::crypto::accel

#endif  // APQA_CRYPTO_MONT_ACCEL_H_
