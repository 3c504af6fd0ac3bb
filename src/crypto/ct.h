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
//      (Renes–Costello–Batina 2016: Alg. 7 addition, Alg. 8 mixed addition
//      and Alg. 9 doubling for a = 0, with 3b * x as an addition chain)
//      driven by signed-window (Booth) ladders whose table lookups read
//      every entry and OR-accumulate the one selected by a mask. Combined
//      with the branch-free field reductions in prime_field.h these execute
//      the same instruction and memory-access sequence for every scalar.
//      `CtScalarMul` is the variable-base two-track GLV ladder;
//      `FixedBaseTable::MulCt` (msm.h) is the fixed-base variant.
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

// 3b * x for the curve y^2 = x^3 + b over the point's coordinate field, by
// additions only: b = 4 on G1, so 3b * x = 12x; b = 4(1 + i) on G2, so
// 3b * x = 12 * (xi * x) with xi = 1 + i (MulByXi: one Fp add, one sub).
inline Fp MulBy3b(const Fp& x) {
  Fp t = x + x + x;  // 3x
  t = t + t;
  return t + t;
}
inline Fp2 MulBy3b(const Fp2& x) {
  Fp2 t = x.MulByXi();
  t = t + t + t;
  t = t + t;
  return t + t;
}

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
CtPoint<F> CtCompleteAdd(const CtPoint<F>& p, const CtPoint<F>& q) {
  F t0 = p.x * q.x;
  F t1 = p.y * q.y;
  F t2 = p.z * q.z;
  F t3 = (p.x + p.y) * (q.x + q.y) - t0 - t1;  // X1Y2 + X2Y1
  F t4 = (p.y + p.z) * (q.y + q.z) - t1 - t2;  // Y1Z2 + Y2Z1
  F t5 = (p.x + p.z) * (q.x + q.z) - t0 - t2;  // X1Z2 + X2Z1
  F three_t0 = t0 + t0 + t0;
  F b3t2 = MulBy3b(t2);
  F b3t5 = MulBy3b(t5);
  F s = t1 + b3t2;   // Y1Y2 + 3bZ1Z2
  F d = t1 - b3t2;   // Y1Y2 - 3bZ1Z2
  CtPoint<F> r;
  r.x = t3 * d - t4 * b3t5;
  r.y = d * s + b3t5 * three_t0;
  r.z = s * t4 + three_t0 * t3;
  return r;
}

// Renes–Costello–Batina 2016, Algorithm 8 (a = 0): complete mixed addition
// P + (qx, qy) with an affine, non-identity second operand (Z2 = 1) — the
// Alg. 7 schedule with Z2 folded away, 11M + 2*mult-by-3b. P may be the
// identity or equal to Q.
template <typename F>
CtPoint<F> CtCompleteAddMixed(const CtPoint<F>& p, const F& qx, const F& qy) {
  F t0 = p.x * qx;
  F t1 = p.y * qy;
  F t3 = (p.x + p.y) * (qx + qy) - t0 - t1;  // X1Y2 + X2Y1
  F t4 = qy * p.z + p.y;                     // Y1 + Y2Z1
  F t5 = qx * p.z + p.x;                     // X1 + X2Z1
  F three_t0 = t0 + t0 + t0;
  F b3t2 = MulBy3b(p.z);
  F b3t5 = MulBy3b(t5);
  F s = t1 + b3t2;
  F d = t1 - b3t2;
  CtPoint<F> r;
  r.x = t3 * d - t4 * b3t5;
  r.y = d * s + b3t5 * three_t0;
  r.z = s * t4 + three_t0 * t3;
  return r;
}

// Renes–Costello–Batina 2016, Algorithm 9 (a = 0): complete doubling in
// 6M + 2S + 1*mult-by-3b, no branches; the identity doubles to itself.
template <typename F>
CtPoint<F> CtCompleteDbl(const CtPoint<F>& p) {
  F t0 = p.y.Square();
  F z8 = t0 + t0;
  z8 = z8 + z8;
  z8 = z8 + z8;  // 8Y^2
  F t1 = p.y * p.z;
  F t2 = MulBy3b(p.z.Square());
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

// --- Signed-window ladder helpers -------------------------------------------

// One signed (Booth) radix-2^W digit of a nonnegative integer below 2^128:
// digit w is b(Ww-1) + sum_{j<W-1} 2^j b(Ww+j) - 2^(W-1) b(Ww+W-1), with
// b(-1) = 0, so the digits lie in [-2^(W-1), 2^(W-1)] and
// sum_w digit_w 2^(Ww) reconstructs the integer once the windows cover bit
// 128 (ceil(129 / W) windows). Returned as a magnitude and an all-ones mask
// when the digit is negative; branch-free in the scalar bits, the only
// branches depend on the public window index.
struct BoothDigit {
  u64 mag;
  u64 neg;
};

template <unsigned W>
inline BoothDigit CtBoothDigit(const Limbs<4>& e, unsigned w) {
  static_assert(W >= 2 && W <= 8);
  // The W + 1 bits b(Ww-1) .. b(Ww+W-1), low bit first.
  u64 v;
  if (w == 0) {
    v = e[0] << 1;
  } else {
    const unsigned pos = W * w - 1;
    const unsigned limb = pos / 64, off = pos % 64;
    v = e[limb] >> off;
    if (off + W + 1 > 64 && limb + 1 < 4) v |= e[limb + 1] << (64 - off);
  }
  v &= (u64{1} << (W + 1)) - 1;
  const u64 top = v >> W;
  const u64 low = v & ((u64{1} << W) - 1);
  const u64 u = (low >> 1) + (low & 1);  // b(Ww-1) + the low W-1 bits
  const u64 neg = u64{0} - top;
  // top ? 2^(W-1) - u : u, by wrapping arithmetic.
  return {u + (((u64{1} << (W - 1)) - u - u) & neg), neg};
}

// Returns entries[idx - 1] for idx in 1..n and all-zero words for idx = 0.
// Every entry is read and OR-accumulated under an equality mask, so the
// loads and the instruction sequence are the same for every idx.
template <typename T>
inline T CtLookup(const T* entries, std::size_t n, u64 idx) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) % sizeof(u64) == 0);
  constexpr std::size_t kWords = sizeof(T) / sizeof(u64);
  u64 acc[kWords] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const u64 mask = CtEqMask64(idx, i + 1);
    u64 w[kWords];
    std::memcpy(w, &entries[i], sizeof(T));
    for (std::size_t j = 0; j < kWords; ++j) acc[j] |= w[j] & mask;
  }
  T out;
  std::memcpy(&out, acc, sizeof(T));
  return out;
}

// *y = neg ? -y : y, branch-free.
template <typename F>
inline void CtCondNegate(F* y, u64 neg) {
  CtCondAssignObj(y, -*y, neg);
}

// Constant-pattern variable-base scalar multiplication, two-track GLV:
// the secret scalar is split branch-free (GlvSplitLimbs) into
// k = k1 + k2 * lambda with both halves below 2^128, each half is read as
// 26 signed radix-2^5 (Booth) digits in [-16, 16], and one shared doubling
// chain walks the windows MSB-first. Each window does five complete
// doublings (none before the top window), then for each track an
// OR-accumulated masked read of the 16-entry projective table [1..16]P
// (digit 0 reads all-zero words, patched to the identity (0 : 1 : 0) by a
// masked select of 1 into y), a masked y-negation for a negative digit,
// and one complete addition — the k2 pick is mapped through the
// endomorphism (x * beta) after selection, which fixes the identity. Every
// scalar costs 125 doublings and 52 additions, zero data-dependent skips.
// The base must lie in the prime-order subgroup (every point the system
// multiplies does: generator multiples and subgroup-checked wire points).
template <typename F>
CurvePoint<F> CtScalarMul(const CurvePoint<F>& base, const SecretFr& k) {
  static_assert(GlvEndo<F>::kEnabled);
  constexpr unsigned kBits = 5, kWindows = 26, kEntries = 16;
  CtPoint<F> table[kEntries];  // table[i] = (i + 1) * base
  table[0] = CtFromJacobian(base);
  for (unsigned i = 1; i < kEntries; ++i) {
    table[i] = (i % 2 == 1) ? CtCompleteDbl(table[i / 2])
                            : CtCompleteAdd(table[i - 1], table[0]);
  }

  const F one = F::One();
  auto pick = [&table, &one](BoothDigit d) {
    CtPoint<F> sel = CtLookup(table, kEntries, d.mag);
    CtCondAssignObj(&sel.y, one, CtIsZeroMask64(d.mag));
    CtCondNegate(&sel.y, d.neg);
    return sel;
  };
  const GlvDecomp kd = GlvSplitLimbs(k.ct_ref().ToCanonical());
  const F& beta = GlvEndo<F>::Beta();
  CtPoint<F> acc = CtPoint<F>::Identity();
  for (unsigned w = kWindows; w-- > 0;) {
    if (w != kWindows - 1) {
      for (unsigned i = 0; i < kBits; ++i) {
        ct_trace::Emit('D', w);
        acc = CtCompleteDbl(acc);
      }
    }
    ct_trace::Emit('T', w);
    acc = CtCompleteAdd(acc, pick(CtBoothDigit<kBits>(kd.k1, w)));
    CtPoint<F> phi = pick(CtBoothDigit<kBits>(kd.k2, w));
    phi.x = phi.x * beta;
    ct_trace::Emit('U', w);
    acc = CtCompleteAdd(acc, phi);
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
