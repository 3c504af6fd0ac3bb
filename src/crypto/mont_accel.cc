// BMI2/ADX 6x64 Montgomery multiply and the 6-limb modular add/subtract —
// the only translation unit in the tree allowed to contain vendor
// intrinsics or inline assembly (lint rule R16).
//
// Shape: operand-scanning CIOS, one row per multiplier limb. Each row
// interleaves the six mulx partial products (flag-free multiplies) with two
// independent add-with-carry chains — the low halves ride the CF chain
// (adcx), the high halves the OF chain (adox) — so the row never serializes
// on a single carry. The Montgomery reduction of the row reuses the same
// shape with m = t0 * (-p^-1) and folds m*p, after which t0 is zero by
// construction and the row shifts down one limb (pure register renaming in
// the unrolled C++ between the asm blocks).
//
// The rows are hand-written asm rather than _addcarryx_u64 intrinsics: GCC
// 12 materializes every intrinsic carry through setc/add instead of keeping
// the two flag chains live (measured slower than the portable u128 CIOS),
// while the asm form runs the dual chains as intended.
//
// Bounds (a, b < p < 2^381): a row grows t to < 2^64*p + 2p < 2^446 and the
// reduction adds another 2^64*p < 2^445, so the running value always fits
// the 7-limb accumulator; every partial sum is bounded by that total, so
// neither chain ever carries out of t6. After the last row t < 2p, and the
// final reduction is the same branch-free masked subtract the portable
// kernel uses — no data-dependent branch anywhere.
#include "crypto/mont_accel.h"

#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define APQA_MONT_ACCEL_X86 1
#endif

namespace apqa::crypto::accel {

namespace {

// APQA_FORCE_PORTABLE=<anything but 0/empty> pins the portable kernel.
bool ForcePortable() {
  const char* v = std::getenv("APQA_FORCE_PORTABLE");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

#ifdef APQA_MONT_ACCEL_X86

bool MontAccelCompiled() { return true; }

bool DetectMontAccel() {
  if (ForcePortable()) return false;
  return __builtin_cpu_supports("bmi2") != 0 &&
         __builtin_cpu_supports("adx") != 0;
}

namespace {

// Writes s0..s5 to r as three 16-byte stores. Callers copy field elements
// with 16-byte moves, and a 16-byte load that spans two fresh 8-byte stores
// cannot be store-forwarded (a stall of about a dozen cycles per copy, as
// much as a whole modular add); a load inside one 16-byte store forwards.
// The multiply and the add/subtract kernels all end with it. SSE2
// is baseline x86-64.
#define APQA_STORE6_X16                                                \
  "movq %[s0], %%xmm0\n\t"                                             \
  "movq %[s1], %%xmm1\n\t"                                             \
  "punpcklqdq %%xmm1, %%xmm0\n\t"                                      \
  "movdqu %%xmm0, 0(%[r])\n\t"                                         \
  "movq %[s2], %%xmm0\n\t"                                             \
  "movq %[s3], %%xmm1\n\t"                                             \
  "punpcklqdq %%xmm1, %%xmm0\n\t"                                      \
  "movdqu %%xmm0, 16(%[r])\n\t"                                        \
  "movq %[s4], %%xmm0\n\t"                                             \
  "movq %[s5], %%xmm1\n\t"                                             \
  "punpcklqdq %%xmm1, %%xmm0\n\t"                                      \
  "movdqu %%xmm0, 32(%[r])\n\t"

// t += mult * src (six 64x64 partial products) over the dual carry chains,
// then fold the pending CF/OF carries into t6. The leading 32-bit xor zeroes
// `lo` AND clears CF+OF in one micro-op, starting both chains clean; the
// final `mov $0` keeps flags intact so the two closing carry folds see the
// chains' true carry-outs (the carry OUT of t6 itself is 0 by the bound in
// the file header).
#define APQA_MADD6(T0, T1, T2, T3, T4, T5, T6, SRC, MULT)          \
  __asm__("xorl %k[lo], %k[lo]\n\t"                                \
          "movq %[mul], %%rdx\n\t"                                 \
          "mulxq 0(%[src]), %[lo], %[hi]\n\t"                      \
          "adcxq %[lo], %[t0]\n\t"                                 \
          "adoxq %[hi], %[t1]\n\t"                                 \
          "mulxq 8(%[src]), %[lo], %[hi]\n\t"                      \
          "adcxq %[lo], %[t1]\n\t"                                 \
          "adoxq %[hi], %[t2]\n\t"                                 \
          "mulxq 16(%[src]), %[lo], %[hi]\n\t"                     \
          "adcxq %[lo], %[t2]\n\t"                                 \
          "adoxq %[hi], %[t3]\n\t"                                 \
          "mulxq 24(%[src]), %[lo], %[hi]\n\t"                     \
          "adcxq %[lo], %[t3]\n\t"                                 \
          "adoxq %[hi], %[t4]\n\t"                                 \
          "mulxq 32(%[src]), %[lo], %[hi]\n\t"                     \
          "adcxq %[lo], %[t4]\n\t"                                 \
          "adoxq %[hi], %[t5]\n\t"                                 \
          "mulxq 40(%[src]), %[lo], %[hi]\n\t"                     \
          "adcxq %[lo], %[t5]\n\t"                                 \
          "adoxq %[hi], %[t6]\n\t"                                 \
          "movq $0, %[lo]\n\t"                                     \
          "adcxq %[lo], %[t6]\n\t"                                 \
          "adoxq %[lo], %[t6]\n\t"                                 \
          : [t0] "+&r"(T0), [t1] "+&r"(T1), [t2] "+&r"(T2),        \
            [t3] "+&r"(T3), [t4] "+&r"(T4), [t5] "+&r"(T5),        \
            [t6] "+&r"(T6), [lo] "=&r"(lo), [hi] "=&r"(hi)         \
          : [src] "r"(SRC), [mul] "r"(MULT)                        \
          : "rdx", "cc")

// One CIOS row: t += bi * a, then fold m*p and shift down a limb.
#define APQA_CIOS_ROW(T0, T1, T2, T3, T4, T5, T6, A, P, INV, BI) \
  do {                                                           \
    APQA_MADD6(T0, T1, T2, T3, T4, T5, T6, A, BI);               \
    const u64 m_ = T0 * (INV);                                   \
    APQA_MADD6(T0, T1, T2, T3, T4, T5, T6, P, m_);               \
    T0 = T1;                                                     \
    T1 = T2;                                                     \
    T2 = T3;                                                     \
    T3 = T4;                                                     \
    T4 = T5;                                                     \
    T5 = T6;                                                     \
    T6 = 0;                                                      \
  } while (0)

// Full 6x64 Montgomery multiply. Marked always_inline so
// MontMulPair384Impl instantiates it twice without call overhead (the
// modulus limbs stay hot between the two products).
__attribute__((always_inline)) inline void MontMul6(const u64* a,
                                                    const u64* b,
                                                    const u64* p, u64 inv,
                                                    u64* r) {
  u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0, t6 = 0;
  u64 lo, hi;
  APQA_CIOS_ROW(t0, t1, t2, t3, t4, t5, t6, a, p, inv, b[0]);
  APQA_CIOS_ROW(t0, t1, t2, t3, t4, t5, t6, a, p, inv, b[1]);
  APQA_CIOS_ROW(t0, t1, t2, t3, t4, t5, t6, a, p, inv, b[2]);
  APQA_CIOS_ROW(t0, t1, t2, t3, t4, t5, t6, a, p, inv, b[3]);
  APQA_CIOS_ROW(t0, t1, t2, t3, t4, t5, t6, a, p, inv, b[4]);
  APQA_CIOS_ROW(t0, t1, t2, t3, t4, t5, t6, a, p, inv, b[5]);
  // Branch-free final reduction: t < 2p; subtract p when the spill limb is
  // set or the trial subtraction does not borrow.
  u64 r0, r1, r2, r3, r4, r5, borrow;
  __asm__("movq %[t0], %[r0]\n\t"
          "subq 0(%[p]), %[r0]\n\t"
          "movq %[t1], %[r1]\n\t"
          "sbbq 8(%[p]), %[r1]\n\t"
          "movq %[t2], %[r2]\n\t"
          "sbbq 16(%[p]), %[r2]\n\t"
          "movq %[t3], %[r3]\n\t"
          "sbbq 24(%[p]), %[r3]\n\t"
          "movq %[t4], %[r4]\n\t"
          "sbbq 32(%[p]), %[r4]\n\t"
          "movq %[t5], %[r5]\n\t"
          "sbbq 40(%[p]), %[r5]\n\t"
          "sbbq %[bw], %[bw]\n\t"  /* all-ones iff the subtraction borrowed */
          : [r0] "=&r"(r0), [r1] "=&r"(r1), [r2] "=&r"(r2), [r3] "=&r"(r3),
            [r4] "=&r"(r4), [r5] "=&r"(r5), [bw] "=&r"(borrow)
          : [t0] "r"(t0), [t1] "r"(t1), [t2] "r"(t2), [t3] "r"(t3),
            [t4] "r"(t4), [t5] "r"(t5), [p] "r"(p)
          : "cc");
  const u64 use = CtNonZeroMask64(t6) | ~borrow;
  const u64 s0 = (r0 & use) | (t0 & ~use);
  const u64 s1 = (r1 & use) | (t1 & ~use);
  const u64 s2 = (r2 & use) | (t2 & ~use);
  const u64 s3 = (r3 & use) | (t3 & ~use);
  const u64 s4 = (r4 & use) | (t4 & ~use);
  const u64 s5 = (r5 & use) | (t5 & ~use);
  __asm__(APQA_STORE6_X16
          :
          : [s0] "r"(s0), [s1] "r"(s1), [s2] "r"(s2), [s3] "r"(s3),
            [s4] "r"(s4), [s5] "r"(s5), [r] "r"(r)
          : "memory", "xmm0", "xmm1");
}

void MontMul384Impl(const u64* a, const u64* b, const u64* p, u64 inv,
                    u64* r) {
  MontMul6(a, b, p, inv, r);
}

void MontMulPair384Impl(const u64* a1, const u64* b1, const u64* a2,
                        const u64* b2, const u64* p, u64 inv, u64* r1,
                        u64* r2) {
  MontMul6(a1, b1, p, inv, r1);
  MontMul6(a2, b2, p, inv, r2);
}

#undef APQA_CIOS_ROW
#undef APQA_MADD6

}  // namespace

void MontMul384(const u64* a, const u64* b, const u64* p, u64 inv, u64* r) {
  MontMul384Impl(a, b, p, inv, r);
}

void MontMulPair384(const u64* a1, const u64* b1, const u64* a2,
                    const u64* b2, const u64* p, u64 inv, u64* r1, u64* r2) {
  MontMulPair384Impl(a1, b1, a2, b2, p, inv, r1, r2);
}

// r = a + b mod p. The raw sum goes to r first; the trial subtraction of p
// then runs in the same registers, and `cmovc` reloads the stored sum when
// the trial borrowed without a carry out of the add — exactly the portable
// rule "subtract p iff carry | !borrow". 11 registers, no branch; every
// cmov reads its memory operand whatever the flag, so the access pattern
// is fixed too.
void ModAdd384(const u64* a, const u64* b, const u64* p, u64* r) {
  u64 s0, s1, s2, s3, s4, s5, c;
  __asm__ volatile(
      "movq 0(%[a]), %[s0]\n\t"
      "addq 0(%[b]), %[s0]\n\t"
      "movq 8(%[a]), %[s1]\n\t"
      "adcq 8(%[b]), %[s1]\n\t"
      "movq 16(%[a]), %[s2]\n\t"
      "adcq 16(%[b]), %[s2]\n\t"
      "movq 24(%[a]), %[s3]\n\t"
      "adcq 24(%[b]), %[s3]\n\t"
      "movq 32(%[a]), %[s4]\n\t"
      "adcq 32(%[b]), %[s4]\n\t"
      "movq 40(%[a]), %[s5]\n\t"
      "adcq 40(%[b]), %[s5]\n\t"
      "sbbq %[c], %[c]\n\t" /* c = -carry */
      "movq %[s0], 0(%[r])\n\t"
      "movq %[s1], 8(%[r])\n\t"
      "movq %[s2], 16(%[r])\n\t"
      "movq %[s3], 24(%[r])\n\t"
      "movq %[s4], 32(%[r])\n\t"
      "movq %[s5], 40(%[r])\n\t"
      "subq 0(%[p]), %[s0]\n\t"
      "sbbq 8(%[p]), %[s1]\n\t"
      "sbbq 16(%[p]), %[s2]\n\t"
      "sbbq 24(%[p]), %[s3]\n\t"
      "sbbq 32(%[p]), %[s4]\n\t"
      "sbbq 40(%[p]), %[s5]\n\t"
      "sbbq $0, %[c]\n\t" /* CF iff borrow && !carry: keep the sum */
      "cmovcq 0(%[r]), %[s0]\n\t"
      "cmovcq 8(%[r]), %[s1]\n\t"
      "cmovcq 16(%[r]), %[s2]\n\t"
      "cmovcq 24(%[r]), %[s3]\n\t"
      "cmovcq 32(%[r]), %[s4]\n\t"
      "cmovcq 40(%[r]), %[s5]\n\t"
      APQA_STORE6_X16
      : [s0] "=&r"(s0), [s1] "=&r"(s1), [s2] "=&r"(s2), [s3] "=&r"(s3),
        [s4] "=&r"(s4), [s5] "=&r"(s5), [c] "=&r"(c)
      : [a] "r"(a), [b] "r"(b), [p] "r"(p), [r] "r"(r)
      : "cc", "memory", "xmm0", "xmm1");
}

// r = a - b mod p: a sub/sbb chain, `sbb` turns the borrow into an
// all-ones/all-zeros mask, and the masked modulus is added back.
void ModSub384(const u64* a, const u64* b, const u64* p, u64* r) {
  u64 s0, s1, s2, s3, s4, s5, mask;
  __asm__("movq 0(%[a]), %[s0]\n\t"
          "subq 0(%[b]), %[s0]\n\t"
          "movq 8(%[a]), %[s1]\n\t"
          "sbbq 8(%[b]), %[s1]\n\t"
          "movq 16(%[a]), %[s2]\n\t"
          "sbbq 16(%[b]), %[s2]\n\t"
          "movq 24(%[a]), %[s3]\n\t"
          "sbbq 24(%[b]), %[s3]\n\t"
          "movq 32(%[a]), %[s4]\n\t"
          "sbbq 32(%[b]), %[s4]\n\t"
          "movq 40(%[a]), %[s5]\n\t"
          "sbbq 40(%[b]), %[s5]\n\t"
          "sbbq %[m], %[m]\n\t" /* all-ones iff a < b */
          : [s0] "=&r"(s0), [s1] "=&r"(s1), [s2] "=&r"(s2), [s3] "=&r"(s3),
            [s4] "=&r"(s4), [s5] "=&r"(s5), [m] "=&r"(mask)
          : [a] "r"(a), [b] "r"(b)
          : "cc", "memory");
  // The masked modulus limbs are formed between the two chains (an `and`
  // would clear CF mid-chain); as "rm" operands the compiler may keep them
  // in registers or spill them, so frame-pointer builds do not run out of
  // GPRs.
  const u64 m0 = p[0] & mask, m1 = p[1] & mask, m2 = p[2] & mask;
  const u64 m3 = p[3] & mask, m4 = p[4] & mask, m5 = p[5] & mask;
  __asm__ volatile(
      "addq %[m0], %[s0]\n\t"
      "adcq %[m1], %[s1]\n\t"
      "adcq %[m2], %[s2]\n\t"
      "adcq %[m3], %[s3]\n\t"
      "adcq %[m4], %[s4]\n\t"
      "adcq %[m5], %[s5]\n\t"
      APQA_STORE6_X16
      : [s0] "+r"(s0), [s1] "+r"(s1), [s2] "+r"(s2), [s3] "+r"(s3),
        [s4] "+r"(s4), [s5] "+r"(s5)
      : [m0] "rm"(m0), [m1] "rm"(m1), [m2] "rm"(m2), [m3] "rm"(m3),
        [m4] "rm"(m4), [m5] "rm"(m5), [r] "r"(r)
      : "cc", "memory", "xmm0", "xmm1");
}

#undef APQA_STORE6_X16

// ---------------------------------------------------------------------------
// Eight-lane G1 subgroup check on AVX-512 IFMA.
//
// Field: radix 2^52, eight limbs (416 bits) per element, one __m512i per
// limb holding that limb of all eight lanes. vpmadd52{lo,hi}uq add the low
// and high 52-bit halves of a 52x52 product into 64-bit accumulators, so a
// Montgomery multiply (R = 2^416, operand scanning) lets every column
// accumulate without carrying and propagates carries once, at the end.
//
// Lazy reduction. p < 2^381 leaves 35 bits of headroom under R: for inputs
// a, b < 2^16 p the product a*b*R^-1 + m*p/R stays below 2p, so the
// multiply never subtracts p and no element is ever fully reduced. Every
// value below carries a bound in units of p (noted next to it); additions
// add bounds, and a subtraction a - b adds an offset 2^k p > b first
// (bounded-offset subtraction), so limbs may go negative until the next
// normalization, whose arithmetic shifts move signed carries. Only
// normalized elements (limbs in [0, 2^52)) feed a multiply, because the
// IFMA units read the low 52 bits of each input limb. Every loop over the
// limbs of an element is fully unrolled (#pragma GCC unroll), so each limb
// lives in its own register instead of an indexed stack array.
//
// Group law: the same Jacobian formulas as CurvePoint (dbl-2009-l,
// madd-2007-bl, add-2007-bl), without their branches. Where the scalar
// code branches (an operand at infinity, equal or opposite operands) the
// branch-free formula yields Z = 0, and Z = 0 then survives every later
// doubling and addition. So a lane whose final Z is nonzero ran the exact
// group law, and a lane that ends with Z = 0 is handed back for the scalar
// test.

// GCC 12's _mm512_srli/srai_epi64 pass _mm512_undefined_epi32() as the
// unused merge source, which -Wuninitialized reports at every inlined use.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// The kernel touches only its own locals and the caller's fixed-size input
// and output arrays, in an order that does not depend on the data. ASan and
// TSan instrumentation of its hundreds of 64-byte temporaries made it
// slower than the scalar test in sanitizer builds, so it is left out of
// both.
#define APQA_IFMA_ATTRS \
  target("avx512f,avx512ifma"), no_sanitize("address", "thread")
#define APQA_IFMA_FN __attribute__((APQA_IFMA_ATTRS))
#define APQA_IFMA_INLINE __attribute__((APQA_IFMA_ATTRS, always_inline)) inline
// The group-law steps stay out of line: each inlines its multiplies fully
// unrolled, and one copy of each keeps the chains' loop inside the
// instruction caches.
#define APQA_IFMA_STEP __attribute__((APQA_IFMA_ATTRS, noinline))

namespace {

constexpr int kLanes = 8;
constexpr int kL52 = 8;  // limbs per element
constexpr u64 kMask52 = (u64{1} << 52) - 1;

struct V8 {
  __m512i l[kL52];
};

struct LanePoint {
  V8 x, y, z;
};

struct LaneField {
  V8 p;
  V8 off[8];  // off[k] = 2^k * p, the subtraction offsets
  __m512i pinv;  // -p^-1 mod 2^52
  __m512i mask;
  V8 to_lane;    // 2^448 mod p: Montgomery-2^384 form times it is lane form
  V8 from_lane;  // 2^384 mod p: lane form times it is Montgomery-2^384 form
};

// Splits a little-endian integer of `words` 64-bit limbs (at most 416
// bits) into eight 52-bit limbs.
void To52(const u64* a, int words, u64* out) {
  for (int j = 0; j < kL52; ++j) {
    const int bit = 52 * j;
    const int w = bit / 64;
    const int s = bit % 64;
    u64 v = w < words ? a[w] >> s : 0;
    if (s > 12 && w + 1 < words) v |= a[w + 1] << (64 - s);
    out[j] = v & kMask52;
  }
}

APQA_IFMA_INLINE V8 Broadcast(const u64* limbs52) {
  V8 r;
  for (int j = 0; j < kL52; ++j) {
    r.l[j] = _mm512_set1_epi64(static_cast<long long>(limbs52[j]));
  }
  return r;
}

// Signed carry propagation: limbs 0..6 into [0, 2^52), the rest into limb 7.
APQA_IFMA_INLINE void Norm(const LaneField& f, V8* a) {
#pragma GCC unroll 16
  for (int j = 0; j < kL52 - 1; ++j) {
    a->l[j + 1] =
        _mm512_add_epi64(a->l[j + 1], _mm512_srai_epi64(a->l[j], 52));
    a->l[j] = _mm512_and_si512(a->l[j], f.mask);
  }
}

// a * b * 2^-416 mod p, below 2p for normalized a, b < 2^16 p; normalized.
APQA_IFMA_INLINE V8 Mul(const LaneField& f, const V8& a, const V8& b) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i t[kL52 + 1];
#pragma GCC unroll 16
  for (int j = 0; j <= kL52; ++j) t[j] = zero;
#pragma GCC unroll 16
  for (int i = 0; i < kL52; ++i) {
    const __m512i bi = b.l[i];
#pragma GCC unroll 16
    for (int j = 0; j < kL52; ++j) {
      t[j] = _mm512_madd52lo_epu64(t[j], a.l[j], bi);
    }
#pragma GCC unroll 16
    for (int j = 0; j < kL52; ++j) {
      t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], a.l[j], bi);
    }
    const __m512i m = _mm512_madd52lo_epu64(zero, t[0], f.pinv);
#pragma GCC unroll 16
    for (int j = 0; j < kL52; ++j) {
      t[j] = _mm512_madd52lo_epu64(t[j], f.p.l[j], m);
    }
#pragma GCC unroll 16
    for (int j = 0; j < kL52; ++j) {
      t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], f.p.l[j], m);
    }
    // The low 52 bits of t[0] are now zero: carry the rest and shift.
    t[1] = _mm512_add_epi64(t[1], _mm512_srli_epi64(t[0], 52));
#pragma GCC unroll 16
    for (int j = 0; j < kL52; ++j) t[j] = t[j + 1];
    t[kL52] = zero;
  }
  V8 r;
#pragma GCC unroll 16
  for (int j = 0; j < kL52; ++j) r.l[j] = t[j];
  Norm(f, &r);
  return r;
}

APQA_IFMA_INLINE V8 Sqr(const LaneField& f, const V8& a) { return Mul(f, a, a); }

// The constant-pattern kernels call one out-of-line copy of the multiply.
// Inlined at each of its ~2.5 KiB call sites, the kernels came to ~300 KiB
// of object code instead of ~190 KiB and ran slower (a group of eight
// ladders 0.20 against 0.16 ms): the calls cost less than the
// instruction-cache misses.
APQA_IFMA_STEP V8 MulX(const LaneField& f, const V8& a, const V8& b) {
  return Mul(f, a, b);
}

// Loads the 6x64 Montgomery-2^384 element at first + i * stride (u64 units)
// of lane i < n into lane form (below 2p); spare lanes repeat lane 0.
APQA_IFMA_INLINE V8 LoadStrided(const LaneField& f, const u64* first,
                                std::size_t stride, int n) {
  alignas(64) u64 t[kL52][kLanes];
  for (int i = 0; i < kLanes; ++i) {
    u64 l52[kL52];
    To52(first + (i < n ? i : 0) * stride, 6, l52);
    for (int j = 0; j < kL52; ++j) t[j][i] = l52[j];
  }
  V8 r;
  for (int j = 0; j < kL52; ++j) r.l[j] = _mm512_load_si512(t[j]);
  return MulX(f, r, f.to_lane);
}

// a + b, not normalized.
APQA_IFMA_INLINE V8 Add(const V8& a, const V8& b) {
  V8 r;
#pragma GCC unroll 16
  for (int j = 0; j < kL52; ++j) r.l[j] = _mm512_add_epi64(a.l[j], b.l[j]);
  return r;
}

// a - b + 2^k p, not normalized; requires b < 2^k p.
APQA_IFMA_INLINE V8 Sub(const LaneField& f, const V8& a, const V8& b, int k) {
  V8 r;
#pragma GCC unroll 16
  for (int j = 0; j < kL52; ++j) {
    r.l[j] = _mm512_add_epi64(_mm512_sub_epi64(a.l[j], b.l[j]),
                              f.off[k].l[j]);
  }
  return r;
}

APQA_IFMA_INLINE V8 Normed(const LaneField& f, V8 a) {
  Norm(f, &a);
  return a;
}

// dbl-2009-l. Input coordinates normalized and below 64p; output X3 < 34p,
// Y3 < 18p, Z3 < 4p, normalized.
APQA_IFMA_STEP void Dbl(const LaneField& f, LanePoint* io) {
  const LanePoint& q = *io;
  const V8 a = Sqr(f, q.x);                           // < 2
  const V8 b = Sqr(f, q.y);                           // < 2
  const V8 c = Sqr(f, b);                             // < 2
  const V8 t = Sqr(f, Normed(f, Add(q.x, b)));        // < 2
  const V8 d2 = Sub(f, Sub(f, t, a, 1), c, 1);        // < 6
  const V8 d = Add(d2, d2);                           // < 12
  const V8 e = Normed(f, Add(Add(a, a), a));          // < 6
  const V8 ff = Sqr(f, e);                            // < 2
  LanePoint r;
  r.x = Normed(f, Sub(f, ff, Add(d, d), 5));          // < 34
  const V8 c2 = Add(c, c);
  const V8 c8 = Add(Add(c2, c2), Add(c2, c2));        // < 16
  r.y = Normed(f, Sub(f, Mul(f, e, Normed(f, Sub(f, d, r.x, 6))), c8, 4));
  const V8 yz = Mul(f, q.y, q.z);
  r.z = Normed(f, Add(yz, yz));                       // < 4
  *io = r;
}

// madd-2007-bl: q + (ax, ay) with ax, ay < 2p. Output below 8p.
APQA_IFMA_STEP void AddAffine(const LaneField& f, LanePoint* io,
                              const V8& ax, const V8& ay) {
  const LanePoint& q = *io;
  const V8 z1z1 = Sqr(f, q.z);
  const V8 u2 = Mul(f, ax, z1z1);
  const V8 s2 = Mul(f, ay, Mul(f, q.z, z1z1));
  const V8 h = Normed(f, Sub(f, u2, q.x, 6));        // < 66
  const V8 hh = Sqr(f, h);
  const V8 hh2 = Add(hh, hh);
  const V8 i = Normed(f, Add(hh2, hh2));             // < 8
  const V8 j = Mul(f, h, i);
  const V8 r2 = Sub(f, s2, q.y, 6);
  const V8 r = Normed(f, Add(r2, r2));               // < 132
  const V8 v = Mul(f, q.x, i);
  LanePoint o;
  o.x = Normed(f, Sub(f, Sub(f, Sqr(f, r), j, 1), Add(v, v), 2));   // < 8
  const V8 yj = Mul(f, q.y, j);
  o.y = Normed(f, Sub(f, Mul(f, r, Normed(f, Sub(f, v, o.x, 3))),
                      Add(yj, yj), 2));                               // < 6
  const V8 zh = Sqr(f, Normed(f, Add(q.z, h)));
  o.z = Normed(f, Sub(f, Sub(f, zh, z1z1, 1), hh, 1));               // < 6
  *io = o;
}

// add-2007-bl: q + o. Output below 8p.
APQA_IFMA_STEP void AddJacobian(const LaneField& f, LanePoint* io,
                                const LanePoint& o) {
  const LanePoint& q = *io;
  const V8 z1z1 = Sqr(f, q.z);
  const V8 z2z2 = Sqr(f, o.z);
  const V8 u1 = Mul(f, q.x, z2z2);
  const V8 u2 = Mul(f, o.x, z1z1);
  const V8 s1 = Mul(f, q.y, Mul(f, o.z, z2z2));
  const V8 s2 = Mul(f, o.y, Mul(f, q.z, z1z1));
  const V8 h = Normed(f, Sub(f, u2, u1, 1));         // < 4
  const V8 i = Sqr(f, Normed(f, Add(h, h)));
  const V8 j = Mul(f, h, i);
  const V8 r2 = Sub(f, s2, s1, 1);
  const V8 r = Normed(f, Add(r2, r2));               // < 8
  const V8 v = Mul(f, u1, i);
  LanePoint out;
  out.x = Normed(f, Sub(f, Sub(f, Sqr(f, r), j, 1), Add(v, v), 2));  // < 8
  const V8 sj = Mul(f, s1, j);
  out.y = Normed(f, Sub(f, Mul(f, r, Normed(f, Sub(f, v, out.x, 3))),
                        Add(sj, sj), 2));                              // < 6
  const V8 zz = Sqr(f, Normed(f, Add(q.z, o.z)));
  out.z = Mul(f, h, Normed(f, Sub(f, Sub(f, zz, z1z1, 1), z2z2, 1)));
  *io = out;
}

// Per-lane mask of a ≡ 0 (mod p) for normalized a < 2^416: a * R^-1 lands
// in [0, p], so it is 0 or p exactly when a ≡ 0.
APQA_IFMA_INLINE __mmask8 IsZeroModP(const LaneField& f, const V8& a) {
  V8 one;
  one.l[0] = _mm512_set1_epi64(1);
#pragma GCC unroll 16
  for (int j = 1; j < kL52; ++j) one.l[j] = _mm512_setzero_si512();
  const V8 v = Mul(f, a, one);
  __mmask8 zero = 0xff, eq_p = 0xff;
#pragma GCC unroll 16
  for (int j = 0; j < kL52; ++j) {
    zero &= _mm512_cmpeq_epi64_mask(v.l[j], _mm512_setzero_si512());
    eq_p &= _mm512_cmpeq_epi64_mask(v.l[j], f.p.l[j]);
  }
  return static_cast<__mmask8>(zero | eq_p);
}

// A Montgomery-2^384 constant (6x64 limbs) in this field's form, on every
// lane; `to_lane` is 2^448 mod p.
APQA_IFMA_INLINE V8 Lift(const LaneField& f, const V8& to_lane,
                         const u64* v) {
  u64 l[kL52];
  To52(v, 6, l);
  return Mul(f, Broadcast(l), to_lane);
}

// The field constants every lane kernel starts from.
APQA_IFMA_INLINE void InitLaneField(const G1LaneConsts& c, LaneField* f) {
  u64 l[kL52];
  To52(c.p, 6, l);
  f->p = Broadcast(l);
  for (int k = 0; k < 8; ++k) {  // 2^k p < 2^388: seven 64-bit limbs
    u64 kp[7];
    for (int w = 0; w < 7; ++w) {
      const u64 lo = w < 6 ? c.p[w] : 0;
      kp[w] = (lo << k) | (k > 0 && w > 0 ? c.p[w - 1] >> (64 - k) : 0);
    }
    To52(kp, 7, l);
    f->off[k] = Broadcast(l);
  }
  // -p^-1 mod 2^52 by Newton iteration: p is odd, so inv = 1 is right mod
  // 2, and each step doubles the number of correct low bits.
  u64 inv = 1;
  for (int it = 0; it < 6; ++it) inv *= 2 - c.p[0] * inv;
  f->pinv = _mm512_set1_epi64(static_cast<long long>((0 - inv) & kMask52));
  f->mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  // The inputs are Montgomery-2^384 representations v * 2^384 mod p; a
  // multiply by 2^448 mod p turns them into v * 2^416, this field's form,
  // and a multiply by 2^384 mod p (the representation of one) turns them
  // back.
  To52(c.r448, 6, l);
  f->to_lane = Broadcast(l);
  To52(c.one, 6, l);
  f->from_lane = Broadcast(l);
}

APQA_IFMA_FN void G1SubgroupCheckX8Impl(const G1LaneConsts& c,
                                        const u64 (*xs)[6],
                                        const u64 (*ys)[6], int n,
                                        LaneVerdict* out) {
  LaneField f;
  InitLaneField(c, &f);
  const V8 one = Lift(f, f.to_lane, c.one);
  const V8 beta2 = Lift(f, f.to_lane, c.beta2);
  const V8 x = LoadStrided(f, xs[0], 6, n);
  const V8 y = LoadStrided(f, ys[0], 6, n);

  // q = [|z|]P, then s = [|z|]q; the top bit of |z| starts each chain.
  int top = 63;
  while (!((c.abs_z >> top) & 1)) --top;
  LanePoint q{x, y, one};
  for (int i = top - 1; i >= 0; --i) {
    Dbl(f, &q);
    if ((c.abs_z >> i) & 1) AddAffine(f, &q, x, y);
  }
  LanePoint s = q;
  for (int i = top - 1; i >= 0; --i) {
    Dbl(f, &s);
    if ((c.abs_z >> i) & 1) AddJacobian(f, &s, q);
  }
  // phi(P) + P = -phi^2(P) = (beta^2 x, -y) for every curve point: P,
  // phi(P) and phi^2(P) are the three points of the curve on the line
  // Y = y, so they sum to infinity. Against s = (X, Y, Z) that reads
  // X == beta^2 x Z^2 and Y == -y Z^3.
  const V8 zz = Sqr(f, s.z);
  const V8 zzz = Mul(f, zz, s.z);
  const V8 e1 = Normed(f, Sub(f, s.x, Mul(f, Mul(f, beta2, x), zz), 1));
  const V8 e2 = Normed(f, Add(s.y, Mul(f, y, zzz)));
  const __mmask8 z0 = IsZeroModP(f, s.z);
  const __mmask8 eq = IsZeroModP(f, e1) & IsZeroModP(f, e2);
  for (int i = 0; i < n; ++i) {
    if ((z0 >> i) & 1) {
      out[i] = LaneVerdict::kRecheck;
    } else {
      out[i] = ((eq >> i) & 1) ? LaneVerdict::kIn : LaneVerdict::kOut;
    }
  }
}

// ---------------------------------------------------------------------------
// Eight-lane constant-pattern G1 multiplies: the variable-base GLV ladder
// of CtScalarMul and the fixed-base walk of FixedBaseTable::MulCt, one
// secret scalar per lane.
//
// Same field as above, same lazy-reduction bounds, but the group law is the
// Renes–Costello–Batina complete formulas of crypto/ct.h (Alg. 7, 8 and 9
// for a = 0, 3b * x as 12x by additions), evaluated in the same order, so
// every lane computes the same field elements as the scalar ladder and its
// output, fully reduced, is bit-identical to it. The formulas are total:
// there is no exceptional case, no Z = 0 re-check and no fallback, so
// nothing here depends on a lane's value. Every table lookup reads every
// entry and keeps the one whose index equals the lane's digit magnitude
// under a per-lane mask (the lane form of CtLookup); a negative digit
// selects the negated y by a mask, a zero digit by a mask too. The
// instruction and memory-access sequence is one per call whatever the
// scalars.

// 12x (3b = 12 on G1) by additions, not normalized.
APQA_IFMA_INLINE V8 Times12(const V8& x) {
  const V8 t = Add(Add(x, x), x);
  const V8 t2 = Add(t, t);
  return Add(t2, t2);
}

// Per-lane select: a where the mask bit is set, else b.
APQA_IFMA_INLINE V8 Select(__mmask8 m, const V8& a, const V8& b) {
  V8 r;
#pragma GCC unroll 16
  for (int j = 0; j < kL52; ++j) {
    r.l[j] = _mm512_mask_blend_epi64(m, b.l[j], a.l[j]);
  }
  return r;
}

APQA_IFMA_INLINE LanePoint SelectPoint(__mmask8 m, const LanePoint& a,
                                       const LanePoint& b) {
  return {Select(m, a.x, b.x), Select(m, a.y, b.y), Select(m, a.z, b.z)};
}

// Alg. 7: io + q for coordinates below 4p; output below 4p, normalized.
APQA_IFMA_STEP void CtAdd(const LaneField& f, LanePoint* io,
                          const LanePoint& q) {
  const LanePoint& p = *io;
  const V8 t0 = MulX(f, p.x, q.x);                                // < 2
  const V8 t1 = MulX(f, p.y, q.y);                                // < 2
  const V8 t2 = MulX(f, p.z, q.z);                                // < 2
  const V8 t3 = Normed(f, Sub(f, Sub(f, MulX(f, Normed(f, Add(p.x, p.y)),
                                            Normed(f, Add(q.x, q.y))),
                                     t0, 1),
                              t1, 1));                           // < 6
  const V8 t4 = Normed(f, Sub(f, Sub(f, MulX(f, Normed(f, Add(p.y, p.z)),
                                            Normed(f, Add(q.y, q.z))),
                                     t1, 1),
                              t2, 1));                           // < 6
  const V8 t5 = Normed(f, Sub(f, Sub(f, MulX(f, Normed(f, Add(p.x, p.z)),
                                            Normed(f, Add(q.x, q.z))),
                                     t0, 1),
                              t2, 1));                           // < 6
  const V8 three_t0 = Normed(f, Add(Add(t0, t0), t0));           // < 6
  const V8 b3t2 = Times12(t2);                                   // < 24
  const V8 b3t5 = Normed(f, Times12(t5));                        // < 72
  const V8 s = Normed(f, Add(t1, b3t2));                         // < 26
  const V8 d = Normed(f, Sub(f, t1, b3t2, 5));                   // < 34
  LanePoint r;
  r.x = Normed(f, Sub(f, MulX(f, t3, d), MulX(f, t4, b3t5), 1));   // < 4
  r.y = Normed(f, Add(MulX(f, d, s), MulX(f, b3t5, three_t0)));    // < 4
  r.z = Normed(f, Add(MulX(f, s, t4), MulX(f, three_t0, t3)));     // < 4
  *io = r;
}

// Alg. 8: io + (qx, qy) for io below 4p and qx, qy at most 2p; output below
// 4p, normalized.
APQA_IFMA_STEP void CtAddMixed(const LaneField& f, LanePoint* io,
                               const V8& qx, const V8& qy) {
  const LanePoint& p = *io;
  const V8 t0 = MulX(f, p.x, qx);                                 // < 2
  const V8 t1 = MulX(f, p.y, qy);                                 // < 2
  const V8 t3 = Normed(f, Sub(f, Sub(f, MulX(f, Normed(f, Add(p.x, p.y)),
                                            Normed(f, Add(qx, qy))),
                                     t0, 1),
                              t1, 1));                           // < 6
  const V8 t4 = Normed(f, Add(MulX(f, qy, p.z), p.y));            // < 6
  const V8 t5 = Add(MulX(f, qx, p.z), p.x);                       // < 6
  const V8 three_t0 = Normed(f, Add(Add(t0, t0), t0));           // < 6
  const V8 b3t2 = Times12(p.z);                                  // < 48
  const V8 b3t5 = Normed(f, Times12(t5));                        // < 72
  const V8 s = Normed(f, Add(t1, b3t2));                         // < 50
  const V8 d = Normed(f, Sub(f, t1, b3t2, 6));                   // < 66
  LanePoint r;
  r.x = Normed(f, Sub(f, MulX(f, t3, d), MulX(f, t4, b3t5), 1));   // < 4
  r.y = Normed(f, Add(MulX(f, d, s), MulX(f, b3t5, three_t0)));    // < 4
  r.z = Normed(f, Add(MulX(f, s, t4), MulX(f, three_t0, t3)));     // < 4
  *io = r;
}

// Alg. 9: 2 * io for coordinates below 4p; output below 4p, normalized.
APQA_IFMA_STEP void CtDbl(const LaneField& f, LanePoint* io) {
  const LanePoint& p = *io;
  const V8 t0 = MulX(f, p.y, p.y);                                     // < 2
  const V8 z2 = Add(t0, t0);
  const V8 z4 = Add(z2, z2);
  const V8 z8 = Normed(f, Add(z4, z4));                          // < 16
  const V8 t1 = MulX(f, p.y, p.z);                                // < 2
  const V8 t2 = Times12(MulX(f, p.z, p.z));                            // < 24
  const V8 x3 = MulX(f, Normed(f, t2), z8);                       // < 2
  const V8 y3 = Normed(f, Add(t0, t2));                          // < 26
  LanePoint r;
  r.z = MulX(f, t1, z8);                                          // < 2
  const V8 t0b = Normed(f, Sub(f, t0, Add(Add(t2, t2), t2), 7)); // < 130
  r.y = Normed(f, Add(x3, MulX(f, t0b, y3)));                     // < 4
  const V8 x = MulX(f, t0b, MulX(f, p.x, p.y));                    // < 2
  r.x = Normed(f, Add(x, x));                                    // < 4
  *io = r;
}

// Stores lane i < n of a (normalized, below 2^16 p) as its fully reduced
// Montgomery-2^384 representation at first + i * stride. The conversion
// multiply leaves a value below 2p; the final subtraction of p is kept or
// dropped by a per-lane mask on the sign of the difference.
APQA_IFMA_INLINE void StoreStrided(const LaneField& f, const V8& a, u64* first,
                                  std::size_t stride, int n) {
  const V8 v = MulX(f, a, f.from_lane);
  V8 d;
#pragma GCC unroll 16
  for (int j = 0; j < kL52; ++j) d.l[j] = _mm512_sub_epi64(v.l[j], f.p.l[j]);
  Norm(f, &d);
  const __mmask8 below_p =
      _mm512_cmplt_epi64_mask(d.l[kL52 - 1], _mm512_setzero_si512());
  const V8 r = Select(below_p, v, d);
  alignas(64) u64 t[kL52][kLanes];
  for (int j = 0; j < kL52; ++j) _mm512_store_si512(t[j], r.l[j]);
  for (int i = 0; i < n; ++i) {
    u64* out = first + i * stride;
    for (int w = 0; w < 6; ++w) out[w] = 0;
    for (int j = 0; j < kL52; ++j) {
      const int bit = 52 * j;
      const int w = bit / 64;
      const int s = bit % 64;
      out[w] |= t[j][i] << s;
      if (s > 12 && w + 1 < 6) out[w + 1] |= t[j][i] >> (64 - s);
    }
  }
}

constexpr std::size_t kPointWords = sizeof(G1LanePoint) / sizeof(u64);

APQA_IFMA_INLINE LanePoint LoadPoints(const LaneField& f,
                                      const G1LanePoint* in, int n) {
  return {LoadStrided(f, in->x, kPointWords, n),
          LoadStrided(f, in->y, kPointWords, n),
          LoadStrided(f, in->z, kPointWords, n)};
}

APQA_IFMA_INLINE void StorePoints(const LaneField& f, const LanePoint& p,
                                  G1LanePoint* out, int n) {
  StoreStrided(f, p.x, out->x, kPointWords, n);
  StoreStrided(f, p.y, out->y, kPointWords, n);
  StoreStrided(f, p.z, out->z, kPointWords, n);
}

// The digit magnitudes and negative masks of one window and track.
struct LaneDigit {
  __m512i mag;
  __mmask8 zero;
  __mmask8 neg;
};

APQA_IFMA_INLINE LaneDigit LoadDigit(const u64* mag, const u64* neg) {
  const __m512i m = _mm512_loadu_si512(mag);
  const __m512i s = _mm512_loadu_si512(neg);
  return {m, _mm512_cmpeq_epi64_mask(m, _mm512_setzero_si512()),
          _mm512_test_epi64_mask(s, s)};
}

// y or 2^k p - y per lane, by the digit's negative mask.
APQA_IFMA_INLINE V8 CondNegate(const LaneField& f, const V8& y, __mmask8 neg,
                               int k) {
  V8 zero;
#pragma GCC unroll 16
  for (int j = 0; j < kL52; ++j) zero.l[j] = _mm512_setzero_si512();
  return Select(neg, Normed(f, Sub(f, zero, y, k)), y);
}

// CtScalarMul's pick: the table entry of each lane's magnitude (every entry
// read), the identity (0 : 1 : 0) for a zero digit, y negated for a
// negative digit.
APQA_IFMA_STEP void LadderPick(const LaneField& f, const LanePoint* table,
                               const V8& one, const LaneDigit& d,
                               LanePoint* out) {
  LanePoint sel;
#pragma GCC unroll 16
  for (int j = 0; j < kL52; ++j) {
    sel.x.l[j] = sel.y.l[j] = sel.z.l[j] = _mm512_setzero_si512();
  }
  for (int e = 0; e < kG1LadderEntries; ++e) {
    const __mmask8 m = _mm512_cmpeq_epi64_mask(
        d.mag, _mm512_set1_epi64(static_cast<long long>(e + 1)));
#pragma GCC unroll 16
    for (int j = 0; j < kL52; ++j) {
      sel.x.l[j] = _mm512_mask_mov_epi64(sel.x.l[j], m, table[e].x.l[j]);
      sel.y.l[j] = _mm512_mask_mov_epi64(sel.y.l[j], m, table[e].y.l[j]);
      sel.z.l[j] = _mm512_mask_mov_epi64(sel.z.l[j], m, table[e].z.l[j]);
    }
  }
  sel.y = Select(d.zero, one, sel.y);
  sel.y = CondNegate(f, sel.y, d.neg, 2);
  *out = sel;
}

APQA_IFMA_FN void G1CtLadderX8Impl(const G1LaneConsts& c,
                                   const G1LanePoint* base, const u64* mag,
                                   const u64* neg, int n, G1LanePoint* out,
                                   void (*trace)(char, unsigned)) {
  LaneField f;
  InitLaneField(c, &f);
  const V8 one = Lift(f, f.to_lane, c.one);
  const V8 beta = Lift(f, f.to_lane, c.beta);
  // table[i] = (i + 1) * base, built as CtScalarMul builds it.
  LanePoint table[kG1LadderEntries];
  table[0] = LoadPoints(f, base, n);
  for (int i = 1; i < kG1LadderEntries; ++i) {
    if (i % 2 == 1) {
      table[i] = table[i / 2];
      CtDbl(f, &table[i]);
    } else {
      table[i] = table[i - 1];
      CtAdd(f, &table[i], table[0]);
    }
  }
  LanePoint acc;
#pragma GCC unroll 16
  for (int j = 0; j < kL52; ++j) {
    acc.x.l[j] = acc.z.l[j] = _mm512_setzero_si512();
  }
  acc.y = one;
  for (int w = kG1LadderWindows; w-- > 0;) {
    if (w != kG1LadderWindows - 1) {
      for (int i = 0; i < kG1LadderWindowBits; ++i) {
        if (trace != nullptr) trace('d', static_cast<unsigned>(w));
        CtDbl(f, &acc);
      }
    }
    const std::size_t at = static_cast<std::size_t>(w) * 2 * kLanes;
    LanePoint sel;
    if (trace != nullptr) trace('t', static_cast<unsigned>(w));
    LadderPick(f, table, one, LoadDigit(mag + at, neg + at), &sel);
    CtAdd(f, &acc, sel);
    LadderPick(f, table, one, LoadDigit(mag + at + kLanes, neg + at + kLanes),
               &sel);
    sel.x = MulX(f, sel.x, beta);
    if (trace != nullptr) trace('u', static_cast<unsigned>(w));
    CtAdd(f, &acc, sel);
  }
  StorePoints(f, acc, out, n);
}

// MulCt's pick and masked add: every entry of the window read (broadcast
// into the lanes whose magnitude selects it), y negated for a negative
// digit, x scaled by beta on the k2 track, one complete mixed addition, and
// the sum kept only in lanes whose digit is nonzero.
APQA_IFMA_STEP void FixedStep(const LaneField& f, const u64* window,
                              const LaneDigit& d, const V8* beta,
                              LanePoint* acc) {
  V8 x, y;
#pragma GCC unroll 16
  for (int j = 0; j < kL52; ++j) {
    x.l[j] = y.l[j] = _mm512_setzero_si512();
  }
  for (int e = 0; e < kG1FixedEntries; ++e) {
    const __mmask8 m = _mm512_cmpeq_epi64_mask(
        d.mag, _mm512_set1_epi64(static_cast<long long>(e + 1)));
    const u64* entry = window + static_cast<std::size_t>(e) * kG1LaneEntryWords;
#pragma GCC unroll 16
    for (int j = 0; j < kL52; ++j) {
      x.l[j] = _mm512_mask_set1_epi64(x.l[j], m,
                                      static_cast<long long>(entry[j]));
      y.l[j] = _mm512_mask_set1_epi64(y.l[j], m,
                                      static_cast<long long>(entry[kL52 + j]));
    }
  }
  y = CondNegate(f, y, d.neg, 1);
  if (beta != nullptr) x = MulX(f, x, *beta);
  LanePoint sum = *acc;
  CtAddMixed(f, &sum, x, y);
  *acc = SelectPoint(static_cast<__mmask8>(~d.zero), sum, *acc);
}

APQA_IFMA_FN void G1CtFixedBaseX8Impl(const G1LaneConsts& c,
                                      const u64* table52, const u64* mag,
                                      const u64* neg, int n, G1LanePoint* out,
                                      void (*trace)(char, unsigned)) {
  LaneField f;
  InitLaneField(c, &f);
  const V8 beta = Lift(f, f.to_lane, c.beta);
  LanePoint acc;
#pragma GCC unroll 16
  for (int j = 0; j < kL52; ++j) {
    acc.x.l[j] = acc.z.l[j] = _mm512_setzero_si512();
  }
  acc.y = Lift(f, f.to_lane, c.one);
  for (int w = 0; w < kG1FixedWindows; ++w) {
    const u64* window = table52 + static_cast<std::size_t>(w) *
                                      kG1FixedEntries * kG1LaneEntryWords;
    const std::size_t at = static_cast<std::size_t>(w) * 2 * kLanes;
    if (trace != nullptr) trace('t', static_cast<unsigned>(w));
    FixedStep(f, window, LoadDigit(mag + at, neg + at), nullptr, &acc);
    if (trace != nullptr) trace('u', static_cast<unsigned>(w));
    FixedStep(f, window, LoadDigit(mag + at + kLanes, neg + at + kLanes),
              &beta, &acc);
  }
  StorePoints(f, acc, out, n);
}

APQA_IFMA_FN void G1LaneTableImpl(const G1LaneConsts& c, const u64 (*xs)[6],
                                  const u64 (*ys)[6], std::size_t n,
                                  u64* out) {
  LaneField f;
  InitLaneField(c, &f);
  for (std::size_t i = 0; i < n; i += kLanes) {
    const int m = static_cast<int>(n - i < kLanes ? n - i : kLanes);
    const V8 x = LoadStrided(f, xs[i], 6, m);
    const V8 y = LoadStrided(f, ys[i], 6, m);
    alignas(64) u64 tx[kL52][kLanes], ty[kL52][kLanes];
    for (int j = 0; j < kL52; ++j) {
      _mm512_store_si512(tx[j], x.l[j]);
      _mm512_store_si512(ty[j], y.l[j]);
    }
    for (int k = 0; k < m; ++k) {
      u64* entry = out + (i + static_cast<std::size_t>(k)) * kG1LaneEntryWords;
      for (int j = 0; j < kL52; ++j) {
        entry[j] = tx[j][k];
        entry[kL52 + j] = ty[j][k];
      }
    }
  }
}

}  // namespace

bool DetectIfmaLanes() {
  if (ForcePortable()) return false;
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512ifma") != 0;
}

void G1SubgroupCheckX8(const G1LaneConsts& c, const u64 (*xs)[6],
                       const u64 (*ys)[6], int n, LaneVerdict* out) {
  G1SubgroupCheckX8Impl(c, xs, ys, n, out);
}

void G1CtLadderX8(const G1LaneConsts& c, const G1LanePoint* base,
                  const u64* mag, const u64* neg, int n, G1LanePoint* out,
                  void (*trace)(char, unsigned)) {
  G1CtLadderX8Impl(c, base, mag, neg, n, out, trace);
}

void G1CtFixedBaseX8(const G1LaneConsts& c, const u64* table52,
                     const u64* mag, const u64* neg, int n, G1LanePoint* out,
                     void (*trace)(char, unsigned)) {
  G1CtFixedBaseX8Impl(c, table52, mag, neg, n, out, trace);
}

void G1LaneTable(const G1LaneConsts& c, const u64 (*xs)[6],
                 const u64 (*ys)[6], std::size_t n, u64* out) {
  G1LaneTableImpl(c, xs, ys, n, out);
}

#undef APQA_IFMA_STEP
#undef APQA_IFMA_INLINE
#undef APQA_IFMA_FN
#undef APQA_IFMA_ATTRS
#pragma GCC diagnostic pop

#else  // !APQA_MONT_ACCEL_X86 — portable-only build; stubs keep the link.

bool MontAccelCompiled() { return false; }

bool DetectMontAccel() {
  (void)ForcePortable();  // discard-ok: env read is irrelevant without a kernel
  return false;
}

void MontMul384(const u64*, const u64*, const u64*, u64, u64*) {}

void MontMulPair384(const u64*, const u64*, const u64*, const u64*,
                    const u64*, u64, u64*, u64*) {}

void ModAdd384(const u64*, const u64*, const u64*, u64*) {}

void ModSub384(const u64*, const u64*, const u64*, u64*) {}

bool DetectIfmaLanes() { return false; }

void G1SubgroupCheckX8(const G1LaneConsts&, const u64 (*)[6],
                       const u64 (*)[6], int, LaneVerdict*) {}

void G1CtLadderX8(const G1LaneConsts&, const G1LanePoint*, const u64*,
                  const u64*, int, G1LanePoint*, void (*)(char, unsigned)) {}

void G1CtFixedBaseX8(const G1LaneConsts&, const u64*, const u64*,
                     const u64*, int, G1LanePoint*,
                     void (*)(char, unsigned)) {}

void G1LaneTable(const G1LaneConsts&, const u64 (*)[6], const u64 (*)[6],
                 std::size_t, u64*) {}

#endif  // APQA_MONT_ACCEL_X86

}  // namespace apqa::crypto::accel
