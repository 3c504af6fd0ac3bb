// Generic prime field with Montgomery-form arithmetic.
//
// `Tag` supplies the modulus as little-endian 64-bit limbs:
//
//   struct MyTag {
//     static constexpr std::size_t kLimbs = 6;
//     static constexpr Limbs<6> kModulus = {...};
//   };
//
// All derived Montgomery constants (R mod p, R^2 mod p, -p^-1 mod 2^64) are
// computed once at first use from the modulus alone, so there is a single
// source of truth for each field.
#ifndef APQA_CRYPTO_PRIME_FIELD_H_
#define APQA_CRYPTO_PRIME_FIELD_H_

#include <cstddef>
#include <span>

#include "crypto/limbs.h"
#include "crypto/mont_accel.h"

namespace apqa::crypto {

template <typename Tag>
class PrimeField {
 public:
  static constexpr std::size_t kLimbs = Tag::kLimbs;
  using L = Limbs<kLimbs>;

  constexpr PrimeField() : v_{} {}

  static const L& Modulus() { return Tag::kModulus; }

  static PrimeField Zero() { return PrimeField(); }
  static PrimeField One() {
    PrimeField r;
    r.v_ = Consts().r1;
    return r;
  }

  static PrimeField FromU64(u64 x) {
    L l{};
    l[0] = x;
    return FromCanonical(l);
  }

  // Interprets `l` as a canonical integer; it must already be < modulus.
  static PrimeField FromCanonical(const L& l) {
    PrimeField r;
    MontMul(l, Consts().r2, &r.v_);
    return r;
  }

  // Reduces an arbitrary N-limb value, then converts to Montgomery form.
  static PrimeField FromCanonicalReduce(L l) {
    while (CompareLimbs<kLimbs>(l, Tag::kModulus) >= 0) {
      SubLimbs<kLimbs>(l, Tag::kModulus, &l);
    }
    return FromCanonical(l);
  }

  L ToCanonical() const {
    L one{};
    one[0] = 1;
    L out;
    MontMul(v_, one, &out);
    return out;
  }

  // Comparisons accumulate over every limb (no early exit) so equality and
  // zero tests on secret field elements do not leak a matching prefix.
  bool IsZero() const { return CtIsZeroMaskLimbs<kLimbs>(v_) != 0; }
  bool operator==(const PrimeField& o) const {
    return CtEqMaskLimbs<kLimbs>(v_, o.v_) != 0;
  }
  bool operator!=(const PrimeField& o) const { return !(*this == o); }

  // Addition/subtraction/multiplication run a fixed instruction sequence:
  // the final reduction always computes the conditional subtraction (or
  // addition) and selects the result with a mask, never a branch. Secret
  // field elements therefore flow through +, -, * without a data-dependent
  // branch or access pattern (crypto/ct.h relies on this). The 6-limb base
  // field routes + and - to the asm kernels of crypto/mont_accel.h under
  // the same dispatch as the multiply; both arms are bit-identical. Forced
  // inline: + and - are as frequent as *, and a wrapper call around the
  // kernel call would cost about as much as the kernel itself.
  __attribute__((always_inline)) PrimeField operator+(
      const PrimeField& o) const {
    // One named result on both arms keeps the return value elided: the
    // kernel writes straight into the caller's object.
    PrimeField r;
    if constexpr (kLimbs == 6) {
      if (accel::MontAccelActive()) {
        accel::ModAdd384(v_.data(), o.v_.data(), Tag::kModulus.data(),
                         r.v_.data());
        return r;
      }
    }
    r = AddPortable(*this, o);
    return r;
  }

  __attribute__((always_inline)) PrimeField operator-(
      const PrimeField& o) const {
    PrimeField r;
    if constexpr (kLimbs == 6) {
      if (accel::MontAccelActive()) {
        accel::ModSub384(v_.data(), o.v_.data(), Tag::kModulus.data(),
                         r.v_.data());
        return r;
      }
    }
    r = SubPortable(*this, o);
    return r;
  }

  PrimeField operator-() const { return Zero() - *this; }

  // Forced inline, like + and -, so a product costs one kernel call.
  __attribute__((always_inline)) PrimeField operator*(
      const PrimeField& o) const {
    PrimeField r;
    MontMul(v_, o.v_, &r.v_);
    return r;
  }

  // Two independent products in one call. On the accelerated 6-limb path the
  // pair kernel keeps the modulus hot across both reductions; elsewhere it is
  // exactly two multiplies. Fp2's Karatsuba multiply/squaring feed their two
  // independent component products through here (crypto/fp2.h).
  static void MulPair(const PrimeField& a1, const PrimeField& b1,
                      const PrimeField& a2, const PrimeField& b2,
                      PrimeField* r1, PrimeField* r2) {
    if constexpr (kLimbs == 6) {
      if (accel::MontAccelActive()) {
        accel::MontMulPair384(a1.v_.data(), b1.v_.data(), a2.v_.data(),
                              b2.v_.data(), Tag::kModulus.data(),
                              Consts().inv, r1->v_.data(), r2->v_.data());
        return;
      }
    }
    *r1 = a1 * b1;
    *r2 = a2 * b2;
  }

  PrimeField Square() const { return *this * *this; }

  PrimeField Double() const { return *this + *this; }

  // Exponentiation by an arbitrary little-endian limb span (canonical int).
  PrimeField Pow(std::span<const u64> e) const {
    std::size_t bits = 0;
    for (std::size_t i = e.size(); i-- > 0;) {
      if (e[i] != 0) {
        u64 t = e[i];
        bits = i * 64;
        while (t) {
          t >>= 1;
          ++bits;
        }
        break;
      }
    }
    PrimeField acc = One();
    for (std::size_t i = bits; i-- > 0;) {
      acc = acc.Square();
      if ((e[i / 64] >> (i % 64)) & 1) acc = acc * *this;
    }
    return acc;
  }

  // Constant-pattern multiplicative inverse via Fermat: a^(p-2). The
  // exponent is the public modulus, so the square-and-multiply branch
  // pattern is data-independent; only the (constant-time) field
  // multiplications see the secret base. ~3x slower than the EGCD
  // Inverse() below — use this for secret inputs, Inverse() for public
  // ones. Returns zero for zero input.
  PrimeField CtInverse() const {
    L e = Tag::kModulus;
    L two{};
    two[0] = 2;
    SubLimbs<kLimbs>(e, two, &e);
    return Pow(std::span<const u64>(e.data(), kLimbs));
  }

  // Multiplicative inverse via binary extended GCD (HAC 14.61 style).
  // VARIABLE TIME in the value being inverted: the GCD iteration count and
  // branch pattern depend on the operand. Only public data may flow here;
  // secret inversions go through CtInverse() (enforced by the Secret<T>
  // taint wrapper in crypto/ct.h). Returns zero for zero input.
  PrimeField Inverse() const {
    if (IsZero()) return Zero();
    const L& p = Tag::kModulus;
    L u = ToCanonical();
    L v = p;
    L x1{}, x2{};
    x1[0] = 1;
    auto halve_mod = [&p](L* x) {
      if ((*x)[0] & 1) {
        u64 carry = AddLimbs<kLimbs>(*x, p, x);
        Shr1Limbs<kLimbs>(x);
        (*x)[kLimbs - 1] |= carry << 63;
      } else {
        Shr1Limbs<kLimbs>(x);
      }
    };
    auto sub_mod = [&p](L* a, const L& b) {
      if (SubLimbs<kLimbs>(*a, b, a)) AddLimbs<kLimbs>(*a, p, a);
    };
    L one{};
    one[0] = 1;
    while (u != one && v != one) {
      while (!(u[0] & 1)) {
        Shr1Limbs<kLimbs>(&u);
        halve_mod(&x1);
      }
      while (!(v[0] & 1)) {
        Shr1Limbs<kLimbs>(&v);
        halve_mod(&x2);
      }
      if (CompareLimbs<kLimbs>(u, v) >= 0) {
        SubLimbs<kLimbs>(u, v, &u);
        sub_mod(&x1, x2);
      } else {
        SubLimbs<kLimbs>(v, u, &v);
        sub_mod(&x2, x1);
      }
    }
    // x1 or x2 holds the canonical inverse; lift it to Montgomery form.
    PrimeField r;
    MontMul((u == one) ? x1 : x2, Consts().r2, &r.v_);
    return r;
  }

  // Raw Montgomery representation (for serialization of field elements the
  // canonical form should be used; this accessor exists for hashing state).
  const L& MontgomeryRepr() const { return v_; }

  // The element whose Montgomery representation is `l`, which must be
  // below the modulus: the inverse of MontgomeryRepr, for kernels that
  // compute in another representation and convert back (crypto/ct_batch.cc).
  static PrimeField FromMontgomeryRepr(const L& l) {
    PrimeField r;
    r.v_ = l;
    return r;
  }

  // True when multiplications (and + / -) on this field are routed to the
  // asm kernels (6-limb fields on CPUs with both extensions, unless
  // APQA_FORCE_PORTABLE pinned the fallback). Public so tests and the
  // perf-smoke bitmatch check can report which arm they exercised.
  static bool UsingAccelKernel() {
    return kLimbs == 6 && accel::MontAccelActive();
  }

  // Forces the portable CIOS kernel regardless of dispatch — the
  // differential oracle the accelerated kernel is validated against
  // (tests/field_test.cc, bench_msm_micro mont_kernel_bitmatch). Both
  // kernels must produce bit-identical Montgomery representations.
  static PrimeField MulPortable(const PrimeField& a, const PrimeField& b) {
    PrimeField r;
    r.v_ = MontMulPortable(a.v_, b.v_);
    return r;
  }

  // The portable u128 add/subtract with a masked final correction: the
  // non-x86/forced-portable arm of + and -, and the oracle for
  // accel::ModAdd384/ModSub384 (tests/field_test.cc, bench_msm_micro
  // fp_addsub_bitmatch).
  __attribute__((noinline)) static PrimeField AddPortable(const PrimeField& a,
                                                         const PrimeField& b) {
    PrimeField r;
    u64 carry = AddLimbs<kLimbs>(a.v_, b.v_, &r.v_);
    L reduced;
    u64 borrow = SubLimbs<kLimbs>(r.v_, Tag::kModulus, &reduced);
    // Subtract p when the raw sum overflowed 64*kLimbs bits or is >= p
    // (i.e. the trial subtraction did not borrow).
    u64 use = u64{0} - (carry | (borrow ^ 1));
    CtSelectLimbs<kLimbs>(use, reduced, r.v_, &r.v_);
    return r;
  }

  __attribute__((noinline)) static PrimeField SubPortable(const PrimeField& a,
                                                         const PrimeField& b) {
    PrimeField r;
    u64 borrow = SubLimbs<kLimbs>(a.v_, b.v_, &r.v_);
    L lifted;
    AddLimbs<kLimbs>(r.v_, Tag::kModulus, &lifted);
    CtSelectLimbs<kLimbs>(u64{0} - borrow, lifted, r.v_, &r.v_);
    return r;
  }

 private:
  struct MontConsts {
    L r1;   // 2^(64*kLimbs) mod p  == Montgomery form of 1
    L r2;   // 2^(2*64*kLimbs) mod p
    u64 inv;  // -p^-1 mod 2^64
  };

  static const MontConsts& Consts() {
    static const MontConsts c = [] {
      MontConsts mc{};
      const L& p = Tag::kModulus;
      // r1 = 2^(64N) mod p by repeated doubling of 1.
      L x{};
      x[0] = 1;
      for (std::size_t i = 0; i < 64 * kLimbs; ++i) {
        u64 carry = AddLimbs<kLimbs>(x, x, &x);
        if (carry || CompareLimbs<kLimbs>(x, p) >= 0) {
          SubLimbs<kLimbs>(x, p, &x);
        }
      }
      mc.r1 = x;
      // r2 = 2^(2*64N) mod p: double r1 another 64N times.
      for (std::size_t i = 0; i < 64 * kLimbs; ++i) {
        u64 carry = AddLimbs<kLimbs>(x, x, &x);
        if (carry || CompareLimbs<kLimbs>(x, p) >= 0) {
          SubLimbs<kLimbs>(x, p, &x);
        }
      }
      mc.r2 = x;
      // inv = -p^-1 mod 2^64 by Newton iteration.
      u64 inv = 1;
      for (int i = 0; i < 6; ++i) inv *= 2 - p[0] * inv;
      mc.inv = ~inv + 1;  // negate mod 2^64
      return mc;
    }();
    return c;
  }

  // Montgomery multiplication dispatch: the 6-limb base field routes to the
  // BMI2/ADX kernel when the CPU has it (crypto/mont_accel.h); everything
  // else — and every field under APQA_FORCE_PORTABLE — takes the portable
  // CIOS below. The dispatch predicate is data-independent, so the
  // constant-time contract of operator* is preserved on both arms. Forced
  // inline and writing straight into *r, so operator* pays no wrapper call
  // and no copy of the product; r must not alias a or b.
  __attribute__((always_inline)) static void MontMul(const L& a, const L& b,
                                                     L* r) {
    if constexpr (kLimbs == 6) {
      if (accel::MontAccelActive()) {
        accel::MontMul384(a.data(), b.data(), Tag::kModulus.data(),
                          Consts().inv, r->data());
        return;
      }
    }
    *r = MontMulPortable(a, b);
  }

  // CIOS Montgomery multiplication: returns a*b*R^-1 mod p. Always compiled
  // on every platform — it is both the non-x86/forced-portable arm and the
  // differential oracle for the accelerated kernel.
  static L MontMulPortable(const L& a, const L& b) {
    const L& p = Tag::kModulus;
    const u64 inv = Consts().inv;
    u64 t[kLimbs + 2] = {0};
    for (std::size_t i = 0; i < kLimbs; ++i) {
      u64 carry = 0;
      for (std::size_t j = 0; j < kLimbs; ++j) {
        u128 s = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
        t[j] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
      }
      u128 s = static_cast<u128>(t[kLimbs]) + carry;
      t[kLimbs] = static_cast<u64>(s);
      t[kLimbs + 1] = static_cast<u64>(s >> 64);

      u64 m = t[0] * inv;
      u128 s2 = static_cast<u128>(m) * p[0] + t[0];
      carry = static_cast<u64>(s2 >> 64);
      for (std::size_t j = 1; j < kLimbs; ++j) {
        s2 = static_cast<u128>(m) * p[j] + t[j] + carry;
        t[j - 1] = static_cast<u64>(s2);
        carry = static_cast<u64>(s2 >> 64);
      }
      s2 = static_cast<u128>(t[kLimbs]) + carry;
      t[kLimbs - 1] = static_cast<u64>(s2);
      t[kLimbs] = t[kLimbs + 1] + static_cast<u64>(s2 >> 64);
      t[kLimbs + 1] = 0;
    }
    L r;
    std::memcpy(r.data(), t, sizeof(r));
    // Branch-free final reduction: subtract p when the product carried into
    // the extra limb or the low limbs are >= p.
    L reduced;
    u64 borrow = SubLimbs<kLimbs>(r, p, &reduced);
    u64 use = CtNonZeroMask64(t[kLimbs]) | (u64{0} - (borrow ^ 1));
    CtSelectLimbs<kLimbs>(use, reduced, r, &r);
    return r;
  }

  L v_;
};

}  // namespace apqa::crypto

#endif  // APQA_CRYPTO_PRIME_FIELD_H_
