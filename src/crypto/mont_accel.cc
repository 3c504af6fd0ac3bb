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

#endif  // APQA_MONT_ACCEL_X86

}  // namespace apqa::crypto::accel
