// Secret-taint discipline and constant-pattern primitives.
//
// Three things live here:
//
//   1. `Secret<T>` / `SecretFr` — a compile-time taint wrapper. Key material
//      and blinding scalars are carried as `SecretFr`; the variable-time
//      entry points of the curve layer (wNAF ScalarMul, Pippenger Msm,
//      FixedBaseTable::Mul, Fp12::Pow, EGCD Inverse) take plain `Fr` and
//      refuse `SecretFr` (deleted overloads), so a secret cannot reach a
//      data-dependent fast path without an explicit, greppable
//      `Declassify()`. `scripts/lint.py --list-declassify` audits every
//      call site.
//
//   2. Constant-pattern kernels — complete point arithmetic
//      (Renes–Costello–Batina 2016, Alg. 7 addition and Alg. 9 doubling for
//      a = 0) driven by fixed-window ladders whose table lookups scan every
//      entry with masked selects. Combined with the branch-free field
//      reductions in prime_field.h these execute the same instruction and
//      memory-access sequence for every scalar. `CtScalarMul` is the
//      variable-base two-track GLV ladder; `FixedBaseTable::MulCt` (msm.h)
//      is the fixed-base variant.
//
//   3. A ctgrind-style dynamic oracle. Under MemorySanitizer the
//      CtPoison/CtUnpoison/CtDeclassifyMem macros mark secret bytes as
//      uninitialized, so any secret-dependent branch or table index aborts
//      the run (tests/ct_check_test.cc). Without MSan they are no-ops and
//      the same test falls back to a trace-equivalence oracle fed by
//      `ct_trace::hook`, which must record identical ladder traces for
//      distinct secrets.
#ifndef APQA_CRYPTO_CT_H_
#define APQA_CRYPTO_CT_H_

#include <cstddef>
#include <cstring>
#include <type_traits>

#include "crypto/curve.h"
#include "crypto/fp12.h"

// --- MSan poisoning harness (ctgrind-style) --------------------------------
//
// Build with clang and -fsanitize=memory (cmake -DAPQA_SANITIZE=memory) to
// turn these into real shadow-memory operations; under any other compiler
// or sanitizer they compile to nothing.
#if defined(__has_feature)
#if __has_feature(memory_sanitizer)
#define APQA_CT_MSAN 1
#endif
#endif

#ifdef APQA_CT_MSAN
#include <sanitizer/msan_interface.h>
// Marks n bytes at p as secret: any branch or index derived from them traps.
#define CtPoison(p, n) __msan_poison((p), (n))
// Clears the secret mark (e.g. on a buffer about to be reused publicly).
#define CtUnpoison(p, n) __msan_unpoison((p), (n))
// Declassification point for the dynamic oracle: the bytes may now flow into
// branches. Pair with a `// declassify:` comment for the static audit.
#define CtDeclassifyMem(p, n) __msan_unpoison((p), (n))
#else
#define CtPoison(p, n) ((void)(p), (void)(n))
#define CtUnpoison(p, n) ((void)(p), (void)(n))
#define CtDeclassifyMem(p, n) ((void)(p), (void)(n))
#endif

namespace apqa::crypto {

// --- Byte- and object-level constant-time helpers --------------------------

// Constant-time byte-equality: accumulates the XOR of every byte pair before
// the single final comparison, so unequal inputs cost exactly as much as
// equal ones (unlike memcmp's early exit). The bool result itself is public.
inline bool CtEqBytes(const void* a, const void* b, std::size_t n) {
  const unsigned char* pa = static_cast<const unsigned char*>(a);
  const unsigned char* pb = static_cast<const unsigned char*>(b);
  unsigned acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc |= static_cast<unsigned>(pa[i] ^ pb[i]);
  }
  return acc == 0;
}

template <typename T, std::size_t N>
inline bool CtEq(const std::array<T, N>& a, const std::array<T, N>& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return CtEqBytes(a.data(), b.data(), N * sizeof(T));
}

// *dst = mask ? src : *dst for any trivially-copyable value type whose size
// is a multiple of 8 (field elements, curve points, Fp12 — all arrays of
// u64 under the hood). Works word-wise through memcpy, so there is no
// aliasing UB and no per-byte branch.
template <typename T>
inline void CtCondAssignObj(T* dst, const T& src, u64 mask) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) % sizeof(u64) == 0);
  constexpr std::size_t kWords = sizeof(T) / sizeof(u64);
  u64 d[kWords], s[kWords];
  std::memcpy(d, dst, sizeof(T));
  std::memcpy(s, &src, sizeof(T));
  for (std::size_t i = 0; i < kWords; ++i) {
    d[i] = (s[i] & mask) | (d[i] & ~mask);
  }
  std::memcpy(dst, d, sizeof(T));
}

// --- Secret taint wrapper ---------------------------------------------------

// A value of type T that must not influence control flow or memory access
// patterns. There is no implicit conversion back to T; the only exits are
//
//   Declassify() — the audited escape hatch. Call sites carry a
//                  `// declassify: <reason>` comment (scripts/lint.py).
//   ct_ref()     — restricted to the constant-pattern kernels in
//                  src/crypto/ (also enforced by scripts/lint.py); the
//                  kernels guarantee the value stays pattern-free.
//
// Arithmetic on secrets forwards to T's operators, which are constant-time
// for the prime fields (see prime_field.h); mixing with public values
// yields a Secret.
template <typename T>
class Secret {
 public:
  Secret() = default;
  explicit Secret(const T& v) : v_(v) {}

  Secret operator+(const Secret& o) const { return Secret(v_ + o.v_); }
  Secret operator-(const Secret& o) const { return Secret(v_ - o.v_); }
  Secret operator*(const Secret& o) const { return Secret(v_ * o.v_); }
  Secret operator-() const { return Secret(-v_); }

  Secret operator+(const T& pub) const { return Secret(v_ + pub); }
  Secret operator-(const T& pub) const { return Secret(v_ - pub); }
  Secret operator*(const T& pub) const { return Secret(v_ * pub); }
  friend Secret operator+(const T& pub, const Secret& s) {
    return Secret(pub + s.v_);
  }
  friend Secret operator*(const T& pub, const Secret& s) {
    return Secret(pub * s.v_);
  }

  const T& Declassify() const { return v_; }
  const T& ct_ref() const { return v_; }

 private:
  T v_;
};

using SecretFr = Secret<Fr>;

// Constant-pattern inverse of a secret scalar (Fermat; public exponent).
inline SecretFr CtInverse(const SecretFr& x) {
  return SecretFr(x.ct_ref().CtInverse());
}

// --- Trace-equivalence oracle ----------------------------------------------

// Optional instrumentation hook for the ladder kernels. When set, every
// ladder step reports (op, step-index) — values that are public by
// construction. tests/ct_check_test.cc records the trace for distinct
// secrets and requires byte-identical sequences; a data-dependent skip or
// extra operation shows up as a trace mismatch even without MSan.
namespace ct_trace {
extern void (*hook)(char op, unsigned step);
inline void Emit(char op, unsigned step) {
  if (hook != nullptr) hook(op, step);
}
}  // namespace ct_trace

// --- Complete-formula point arithmetic --------------------------------------

// 3*b for the curve y^2 = x^3 + b a point coordinate field lives on;
// specialized for Fp (G1, b = 4) and Fp2 (G2, b = 4(1+i)) in ct.cc.
template <typename F>
struct CtCurveB3;
template <>
struct CtCurveB3<Fp> {
  static const Fp& Get();
};
template <>
struct CtCurveB3<Fp2> {
  static const Fp2& Get();
};

// Homogeneous projective point (X : Y : Z); identity is (0 : 1 : 0). The
// complete formulas below are total on the odd-order BLS12-381 groups —
// doubling, identity operands and inverses all take the same code path.
template <typename F>
struct CtPoint {
  F x, y, z;
  static CtPoint Identity() { return {F::Zero(), F::One(), F::Zero()}; }
};

// Renes–Costello–Batina 2016, Algorithm 7 (a = 0): 12M + 2*mult-by-3b + 19
// additions, no branches, complete for groups without 2-torsion.
template <typename F>
CtPoint<F> CtCompleteAdd(const CtPoint<F>& p, const CtPoint<F>& q,
                         const F& b3) {
  F t0 = p.x * q.x;
  F t1 = p.y * q.y;
  F t2 = p.z * q.z;
  F t3 = (p.x + p.y) * (q.x + q.y) - t0 - t1;  // X1Y2 + X2Y1
  F t4 = (p.y + p.z) * (q.y + q.z) - t1 - t2;  // Y1Z2 + Y2Z1
  F t5 = (p.x + p.z) * (q.x + q.z) - t0 - t2;  // X1Z2 + X2Z1
  F three_t0 = t0 + t0 + t0;
  F b3t2 = b3 * t2;
  F b3t5 = b3 * t5;
  F s = t1 + b3t2;   // Y1Y2 + 3bZ1Z2
  F d = t1 - b3t2;   // Y1Y2 - 3bZ1Z2
  CtPoint<F> r;
  r.x = t3 * d - t4 * b3t5;
  r.y = d * s + b3t5 * three_t0;
  r.z = s * t4 + three_t0 * t3;
  return r;
}

// Renes–Costello–Batina 2016, Algorithm 9 (a = 0): complete doubling in
// 6M + 2S + 1*mult-by-3b, no branches; the identity doubles to itself.
template <typename F>
CtPoint<F> CtCompleteDbl(const CtPoint<F>& p, const F& b3) {
  F t0 = p.y.Square();
  F z8 = t0 + t0;
  z8 = z8 + z8;
  z8 = z8 + z8;  // 8Y^2
  F t1 = p.y * p.z;
  F t2 = b3 * p.z.Square();
  CtPoint<F> r;
  F x3 = t2 * z8;
  F y3 = t0 + t2;
  r.z = t1 * z8;
  t2 = t2 + t2 + t2;
  t0 = t0 - t2;
  r.y = x3 + t0 * y3;
  F xy = p.x * p.y;
  r.x = t0 * xy;
  r.x = r.x + r.x;
  return r;
}

// Jacobian (X, Y, Z) = (x Z^2, y Z^3, Z) -> homogeneous (x Z^3 : y Z^3 : Z^3)
// = (X Z : Y : Z^3). Inversion-free and branch-free; Jacobian infinity
// (Z = 0) maps to a representative of the projective identity.
template <typename F>
CtPoint<F> CtFromJacobian(const CurvePoint<F>& p) {
  return {p.x * p.z, p.y, p.z.Square() * p.z};
}

// Homogeneous (X : Y : Z) -> Jacobian (X Z, Y Z^2, Z); identity maps to the
// Jacobian infinity encoding (Z = 0). Branch-free.
template <typename F>
CurvePoint<F> CtToJacobian(const CtPoint<F>& p) {
  F z2 = p.z.Square();
  return {p.x * p.z, p.y * z2, p.z};
}

// Constant-pattern variable-base scalar multiplication, two-track GLV:
// the secret scalar is split branch-free (GlvSplitLimbs) into
// k = k1 + k2 * lambda with both halves below 2^128, and one shared
// doubling chain walks 32 fixed 4-bit windows MSB-first. Each window does
// four complete doublings (none before the top window), then for each
// track a full scan of the 16-entry table [0..15]P with masked selects and
// one complete addition — the k2 pick is mapped through the endomorphism
// (x * beta) after selection, which fixes the identity (0 : 1 : 0). Every
// scalar costs 124 doublings and 64 additions, zero data-dependent skips.
// The base must lie in the prime-order subgroup (every point the system
// multiplies does: generator multiples and subgroup-checked wire points).
template <typename F>
CurvePoint<F> CtScalarMul(const CurvePoint<F>& base, const SecretFr& k) {
  static_assert(GlvEndo<F>::kEnabled);
  const F& b3 = CtCurveB3<F>::Get();
  CtPoint<F> table[16];
  table[0] = CtPoint<F>::Identity();
  table[1] = CtFromJacobian(base);
  for (int i = 2; i < 16; ++i) {
    table[i] = (i % 2 == 0) ? CtCompleteDbl(table[i / 2], b3)
                            : CtCompleteAdd(table[i - 1], table[1], b3);
  }

  auto pick = [&table](u64 digit) {
    CtPoint<F> sel = table[0];
    for (u64 d = 1; d < 16; ++d) {
      CtCondAssignObj(&sel, table[d], CtEqMask64(digit, d));
    }
    return sel;
  };
  const GlvDecomp kd = GlvSplitLimbs(k.ct_ref().ToCanonical());
  const F& beta = GlvEndo<F>::Beta();
  CtPoint<F> acc = CtPoint<F>::Identity();
  for (unsigned w = 32; w-- > 0;) {
    if (w != 31) {
      for (int i = 0; i < 4; ++i) {
        ct_trace::Emit('D', w);
        acc = CtCompleteDbl(acc, b3);
      }
    }
    const unsigned shift = 4 * (w % 16);
    ct_trace::Emit('T', w);
    acc = CtCompleteAdd(acc, pick((kd.k1[w / 16] >> shift) & 15u), b3);
    CtPoint<F> phi = pick((kd.k2[w / 16] >> shift) & 15u);
    phi.x = phi.x * beta;
    ct_trace::Emit('U', w);
    acc = CtCompleteAdd(acc, phi, b3);
  }
  return CtToJacobian(acc);
}

// Generator multiplications with a secret exponent, routed through the
// shared fixed-base tables' constant-pattern path (FixedBaseTable::MulCt).
G1 CtG1Mul(const SecretFr& k);
G2 CtG2Mul(const SecretFr& k);

// Constant-pattern Fp12 exponentiation (square-and-multiply-always over the
// fixed 255-bit scalar width, masked accumulator update). Used for the GT
// blinding exponents of CP-ABE encryption and envelope sealing.
Fp12 CtPow(const Fp12& base, const SecretFr& k);

}  // namespace apqa::crypto

#endif  // APQA_CRYPTO_CT_H_
