// Runtime-dispatched accelerated kernels: the Montgomery multiply and the
// modular add/subtract next to it, an eight-lane G1 subgroup check, and
// eight-lane constant-pattern G1 and G2 scalar multiplications.
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
// The subgroup kernel serves decoding: every G1 point read from untrusted
// bytes must pass Scott's subgroup test, and a VO carries over a hundred of
// them. On parts with AVX-512 IFMA (52x52-bit multiply-accumulate on eight
// 64-bit lanes) the test runs on eight points at once in a radix-2^52
// Montgomery field with lazy reduction, several times faster per point
// than the scalar test (bench_msm_micro g1_subgroup_check_x8). Decoders
// reach it through crypto::PointAdmission (crypto/serde.h), which queues
// the checks of one decode and runs them in one pass.
//
// The multiply kernels serve signing and relaxation: CtScalarMul's GLV
// ladder and FixedBaseTable::MulCt's fixed-base walk, eight secret scalars
// at a time in the same field, with the complete formulas of crypto/ct.h
// and masked full-scan lookups, so they run one instruction and memory
// sequence whatever the scalars and return the scalar kernels' results bit
// for bit. The group law, the picks and the kernels are written once over
// a lane field element: the G1 kernels are its Fp instance, the G2 kernels
// its Fp2 instance, an Fp2 lane element being two lane Fp elements
// c0 + c1 i with a Karatsuba multiply over the lane Fp multiply and
// 3b * x = 12 (1 + i) x by additions (bench_msm_micro ct_mul_g1_x8 /
// ct_fixed_base_g1_x8: about a sixth of the scalar cost per multiply;
// ct_mul_g2_x8 / ct_fixed_base_g2_x8: about a fifth). Callers reach them
// through crypto::CtMulBatch (crypto/ct_batch.h), which groups the
// multiplies of a signature or of a whole VO.
//
// This header is intrinsics-free: it declares the dispatch queries and the
// raw kernel entry points, all defined in mont_accel.cc — the single
// translation unit allowed to contain __asm__/vendor intrinsics (lint rule
// R16). The portable kernel in prime_field.h stays always-compiled as the
// fallback and the differential oracle (tests/field_test.cc, bench
// mont_kernel_bitmatch); CurvePoint::InPrimeOrderSubgroup is the fallback
// and oracle of the subgroup kernel (tests/subgroup_admission_test.cc),
// CtScalarMul and FixedBaseTable::MulCt of the multiply kernels
// (CtLanes in tests/ct_check_test.cc).
//
// Dispatch is decided once per process:
//   - APQA_FORCE_PORTABLE=1 in the environment pins the portable kernels,
//     the scalar subgroup test and the scalar ladders (scripts/check.sh
//     re-runs the field/curve/msm/pairing, serde, admission, lane and
//     pinned-VO suites this way so the fallback arms cannot rot on BMI2 or
//     IFMA builders);
//   - otherwise the multiply and add/subtract need CPUID to report both
//     BMI2 and ADX, and the lane kernels both AVX-512F and AVX-512 IFMA.
// The decision is data-independent, so the constant-time discipline of
// prime_field.h is unaffected: whichever kernel is selected runs a fixed
// instruction sequence with a branch-free final reduction. The subgroup
// kernel is variable time and only ever sees public points; the multiply
// kernels take secrets and have no data-dependent branch or fallback.
#ifndef APQA_CRYPTO_MONT_ACCEL_H_
#define APQA_CRYPTO_MONT_ACCEL_H_

#include <cstddef>

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

// One-shot detection for the eight-lane kernel below: compiled in, CPUID
// reports AVX-512F and AVX-512 IFMA, and APQA_FORCE_PORTABLE is absent/0.
bool DetectIfmaLanes();

// Cached like MontAccelActive().
inline bool IfmaLanesActive() {
  static const bool active = DetectIfmaLanes();
  return active;
}

// The constants of the eight-lane kernels, as 6x64-bit little-endian limbs.
// Field elements are in PrimeField's Montgomery form (v * 2^384 mod p).
struct LaneConsts {
  u64 p[6];         // the base-field modulus
  u64 r448[6];      // 2^448 mod p, as a plain integer
  u64 one[6];       // 1
  u64 beta[6];      // beta, the G1 GLV cube root of unity
  u64 beta2[6];     // beta^2
  u64 g2_beta[12];  // GlvEndo<Fp2>::Beta(), the G2 one: c0 then c1
  u64 abs_z;        // |z|, the BLS parameter
};

enum class LaneVerdict : std::uint8_t { kOut, kIn, kRecheck };

// Scott's G1 test phi(P) + P == [|z|]([|z|]P) on up to eight affine curve
// points at once: lane i < n takes (xs[i], ys[i]) (Montgomery form, on the
// curve, not at infinity) and gets kIn or kOut, or kRecheck when its chain
// ended at Z = 0 (an exceptional addition, or a result at infinity, as
// points with small-order components produce); a kRecheck lane must be
// decided by CurvePoint::InPrimeOrderSubgroup. Variable time: public points
// only. Must only be called when IfmaLanesActive() is true.
void G1SubgroupCheckX8(const LaneConsts& c, const u64 (*xs)[6],
                       const u64 (*ys)[6], int n, LaneVerdict* out);

// A projective point (X : Y : Z) of one lane over Fp (D = 1) or Fp2
// (D = 2, each coordinate c0 then c1), every Fp part in PrimeField's
// Montgomery form, fully reduced.
template <int D>
struct LanePointOf {
  u64 x[6 * D], y[6 * D], z[6 * D];
};
using G1LanePoint = LanePointOf<1>;
using G2LanePoint = LanePointOf<2>;

// The shapes of the scalar ladders the lane kernels reproduce, on both
// groups: CtScalarMul (crypto/ct.h) reads each GLV half as 26 signed
// radix-2^5 digits against a 16-entry table, FixedBaseTable::MulCt
// (crypto/msm.h) as 22 signed radix-2^6 digits against 32 entries per
// window.
constexpr int kLadderWindows = 26;
constexpr int kLadderWindowBits = 5;
constexpr int kLadderEntries = 16;
constexpr int kFixedWindows = 22;
constexpr int kFixedEntries = 32;

// Digit layout of the multiply kernels: for window w, track t (0 for k1,
// 1 for k2 of the GLV split) and lane i, mag[(2w + t) * 8 + i] is the
// digit's magnitude and neg[(2w + t) * 8 + i] is all-ones when it is
// negative.
//
// CtScalarMul on up to eight lanes: lane i < n multiplies the point whose
// first table entry is base[i] (CtFromJacobian of the base) by its digits
// and writes the ladder's projective accumulator to out[i], the same field
// elements CtScalarMul reaches before CtToJacobian. Constant pattern: the
// instruction and memory-access sequence does not depend on the points or
// the digits. `trace`, when set, receives ('d', window) before each
// doubling and ('t', window) / ('u', window) before each track's pick, as
// ct_trace::hook does for the scalar ladder. Must only be called when
// IfmaLanesActive() is true. The G1 and G2 kernels are the Fp and Fp2
// instances of one set of lane formulas.
void G1CtLadderX8(const LaneConsts& c, const G1LanePoint* base,
                  const u64* mag, const u64* neg, int n, G1LanePoint* out,
                  void (*trace)(char, unsigned));
void G2CtLadderX8(const LaneConsts& c, const G2LanePoint* base,
                  const u64* mag, const u64* neg, int n, G2LanePoint* out,
                  void (*trace)(char, unsigned));

// FixedBaseTable::MulCt on up to eight lanes over one table, given in lane
// form: kFixedWindows * kFixedEntries entries in the table's order, each
// the Fp parts of x, then of y, in the 8-word form LaneForm writes (16
// words per G1 entry, 32 per G2 entry). Lane i < n writes the projective
// accumulator of its digits to out[i]. Constant pattern, traced and
// dispatched like the ladders.
void G1CtFixedBaseX8(const LaneConsts& c, const u64* table52,
                     const u64* mag, const u64* neg, int n, G1LanePoint* out,
                     void (*trace)(char, unsigned));
void G2CtFixedBaseX8(const LaneConsts& c, const u64* table52,
                     const u64* mag, const u64* neg, int n, G2LanePoint* out,
                     void (*trace)(char, unsigned));

// Converts n Fp elements (Montgomery form, 6 words each, consecutive) into
// the lane form the fixed-base kernels read: 8 words each, in the same
// order, at out. A table entry's x and y parts, converted in turn, make
// one lane-form entry.
void LaneForm(const LaneConsts& c, const u64* in, std::size_t n, u64* out);

}  // namespace apqa::crypto::accel

#endif  // APQA_CRYPTO_MONT_ACCEL_H_
