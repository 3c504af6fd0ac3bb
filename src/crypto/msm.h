// Scalar-multiplication engine: batched inversion, batch affine
// normalization, fixed-base windowed tables, and Pippenger multi-scalar
// multiplication. Everything APQA does — ABS sign/relax/verify, AP²G-tree
// signing, CP-ABE sealing — bottoms out in these kernels.
//
//   BatchInverse    — Montgomery's trick: n inversions for the price of one
//                     plus 3(n-1) multiplications. Zero entries stay zero
//                     (mirroring PrimeField::Inverse).
//   BatchToAffine   — normalizes many Jacobian points with one inversion
//                     (G1 and G2 points together, through the Fp2 norm).
//   FixedBaseTable  — signed radix-64 windowed table for a long-lived base
//                     over the two GLV halves: one mixed addition per 6
//                     bits of each half, no doublings.
//   Msm / G1Msm / G2Msm — Pippenger's bucket method with a naive fallback
//                     below a size cutoff.
//
// The fast paths here are NOT constant time (wNAF digit skips, per-digit
// table indexing, Pippenger bucketing) and therefore take plain `Fr`
// scalars only: a `SecretFr` (crypto/ct.h) does not convert and hits a
// deleted overload, so secrets cannot reach them without an explicit
// `Declassify()`. Secret exponents use `FixedBaseTable::MulCt`, which walks
// the same precomputed tables with a full-scan masked read and complete
// mixed-addition formulas — identical memory-access pattern for every
// scalar.
#ifndef APQA_CRYPTO_MSM_H_
#define APQA_CRYPTO_MSM_H_

#include <array>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "crypto/ct.h"
#include "crypto/curve.h"

namespace apqa::crypto {

// In-place batched inversion (Montgomery's trick). Zero entries are skipped
// and remain zero.
template <typename F>
void BatchInverse(F* xs, std::size_t n) {
  if (n == 0) return;
  std::vector<F> prefix(n);
  F acc = F::One();
  for (std::size_t i = 0; i < n; ++i) {
    if (xs[i].IsZero()) continue;
    prefix[i] = acc;
    acc = acc * xs[i];
  }
  F inv = acc.Inverse();
  for (std::size_t i = n; i-- > 0;) {
    if (xs[i].IsZero()) continue;
    F saved = xs[i];
    xs[i] = inv * prefix[i];
    inv = inv * saved;
  }
}

// Normalizes every point to Z = 1 (affine) in place, sharing a single field
// inversion across the whole span. Points at infinity are left untouched.
template <typename F>
void BatchToAffine(std::span<CurvePoint<F>> pts) {
  std::vector<F> zs(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) zs[i] = pts[i].z;
  BatchInverse(zs.data(), zs.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].IsInfinity()) continue;
    F zi2 = zs[i].Square();
    pts[i].x = pts[i].x * zi2;
    pts[i].y = pts[i].y * zi2 * zs[i];
    pts[i].z = F::One();
  }
}

// Normalizes G1 and G2 points together with a single field inversion: an
// Fp2 element z = c0 + c1*i has 1/z = conj(z) / N(z) with the Fp norm
// N(z) = c0^2 + c1^2, so the G2 norms join the G1 Zs in one BatchInverse.
// Points at infinity are left untouched (N(z) = 0 exactly when z = 0).
inline void BatchToAffine(std::span<G1> g1, std::span<G2> g2) {
  std::vector<Fp> zs;
  zs.reserve(g1.size() + g2.size());
  for (const G1& pt : g1) zs.push_back(pt.z);
  for (const G2& pt : g2) zs.push_back(pt.z.c0.Square() + pt.z.c1.Square());
  BatchInverse(zs.data(), zs.size());
  for (std::size_t i = 0; i < g1.size(); ++i) {
    if (g1[i].IsInfinity()) continue;
    Fp zi2 = zs[i].Square();
    g1[i].x = g1[i].x * zi2;
    g1[i].y = g1[i].y * zi2 * zs[i];
    g1[i].z = Fp::One();
  }
  for (std::size_t i = 0; i < g2.size(); ++i) {
    G2& pt = g2[i];
    if (pt.IsInfinity()) continue;
    Fp2 zi = pt.z.Conjugate().MulByFp(zs[g1.size() + i]);
    Fp2 zi2 = zi.Square();
    pt.x = pt.x * zi2;
    pt.y = pt.y * zi2 * zi;
    pt.z = Fp2::One();
  }
}

// Fixed-base precomputation for a long-lived base point (a generator, an ABS
// verification-key component, a signing-key base). The scalar is split as
// k = k1 + k2 * lambda (crypto/glv.h), both halves below 2^128, and each
// half is read as 22 signed radix-2^6 (Booth) digits in [-32, 32]. The
// table stores d * 64^w * P for d = 1..32 in each of the 22 windows (704
// entries), normalized to affine with one shared inversion; a negative
// digit negates y, and the k2 track reuses the same entries under the
// endomorphism (beta-scaled x) — one field multiply per pick instead of a
// second table. A multiply is 44 picks and at most 44 mixed additions, no
// doublings, no per-call table build. Only the GLV fields (Fp, Fp2) are
// supported; the base must lie in the prime-order subgroup (true for every
// table the system builds: generators and their multiples).
template <typename F>
class FixedBaseTable {
  static_assert(GlvEndo<F>::kEnabled,
                "FixedBaseTable walks GLV halves; Fp and Fp2 only");

 public:
  static constexpr unsigned kWindowBits = 6;
  // ceil(129 / 6): signed digits of a 128-bit half need a window past bit
  // 127 so the top digit is nonnegative.
  static constexpr std::size_t kWindows = 22;
  static constexpr std::size_t kEntries = 32;  // |digit| = 1..32

  FixedBaseTable() = default;

  explicit FixedBaseTable(const CurvePoint<F>& base) {
    if (base.IsInfinity()) {
      infinity_base_ = true;
      return;
    }
    std::vector<CurvePoint<F>> pts(kWindows * kEntries);
    CurvePoint<F> window_base = base;  // 64^w * P
    for (std::size_t w = 0; w < kWindows; ++w) {
      CurvePoint<F> acc = window_base;
      pts[w * kEntries] = acc;
      for (std::size_t d = 2; d <= kEntries; ++d) {
        acc = acc + window_base;
        pts[w * kEntries + (d - 1)] = acc;
      }
      window_base = acc.Double();  // 2 * (32 * 64^w * P)
    }
    // For a base in the prime-order subgroup no entry can be infinity
    // (d * 64^w <= 2^131 is never divisible by r), so affine coordinates
    // are total.
    BatchToAffine<F>(pts);
    entries_.resize(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      entries_[i] = {pts[i].x, pts[i].y};
    }
    lanes_ = std::make_shared<LaneForm>();
  }

  bool Initialized() const { return infinity_base_ || !entries_.empty(); }
  bool InfinityBase() const { return infinity_base_; }

  // The entries in the radix-2^52 form of the eight-lane constant-pattern
  // walk (accel::G1CtFixedBaseX8), converted on first use (~90 KiB) and
  // shared by copies of the table. G1 tables over a finite base only;
  // defined in crypto/ct_batch.cc.
  const std::vector<u64>& LaneEntries() const;

  // Variable-time multiply: skips zero digits and indexes the table by the
  // digit magnitude. Public scalars only — SecretFr hits the deleted
  // overload.
  CurvePoint<F> Mul(const Fr& k) const {
    if (infinity_base_) return CurvePoint<F>::Infinity();
    const GlvDecomp kd = GlvSplit(k);
    const F& beta = GlvEndo<F>::Beta();
    CurvePoint<F> acc = CurvePoint<F>::Infinity();
    for (unsigned w = 0; w < kWindows; ++w) {
      const Entry* window = &entries_[w * kEntries];
      const BoothDigit d1 = CtBoothDigit<kWindowBits>(kd.k1, w);
      if (d1.mag != 0) {
        const Entry& e = window[d1.mag - 1];
        acc = acc.AddMixed(e.x, d1.neg != 0 ? -e.y : e.y);
      }
      const BoothDigit d2 = CtBoothDigit<kWindowBits>(kd.k2, w);
      if (d2.mag != 0) {
        // phi-track: the stored entry scaled through the endomorphism.
        const Entry& e = window[d2.mag - 1];
        acc = acc.AddMixed(e.x * beta, d2.neg != 0 ? -e.y : e.y);
      }
    }
    return acc;
  }
  CurvePoint<F> Mul(const SecretFr&) const = delete;

  // Constant-pattern multiply for secret scalars. The scalar is decomposed
  // with the branch-free GlvSplitLimbs (Barrett quotient, masked
  // corrections) and each window runs the k1 pick ('T') and then the k2
  // pick ('U'): one OR-accumulated masked read of all 32 entries, a masked
  // y-negation for a negative digit, the beta scaling of x on the k2 track,
  // one complete mixed addition (Renes–Costello–Batina Alg. 8) into the
  // projective accumulator, and a masked keep of the old accumulator when
  // the digit is 0 (the all-zero read is not a point). The same loads and
  // the same instruction sequence for every scalar.
  CurvePoint<F> MulCt(const SecretFr& k) const {
    if (infinity_base_) return CurvePoint<F>::Infinity();
    const GlvDecomp kd = GlvSplitLimbs(k.ct_ref().ToCanonical());
    const F& beta = GlvEndo<F>::Beta();
    CtPoint<F> acc = CtPoint<F>::Identity();
    auto add_pick = [&acc, &beta](const Entry* window, BoothDigit d,
                                  bool phi_track) {
      Entry sel = CtLookup(window, kEntries, d.mag);
      CtCondNegate(&sel.y, d.neg);
      if (phi_track) sel.x = sel.x * beta;
      const CtPoint<F> sum = CtCompleteAddMixed(acc, sel.x, sel.y);
      CtCondAssignObj(&acc, sum, CtNonZeroMask64(d.mag));
    };
    for (unsigned w = 0; w < kWindows; ++w) {
      const Entry* window = &entries_[w * kEntries];
      ct_trace::Emit('T', w);
      add_pick(window, CtBoothDigit<kWindowBits>(kd.k1, w), false);
      ct_trace::Emit('U', w);
      add_pick(window, CtBoothDigit<kWindowBits>(kd.k2, w), true);
    }
    return CtToJacobian(acc);
  }

 private:
  struct Entry {
    F x, y;
  };

  struct LaneForm {
    std::once_flag once;
    std::vector<u64> words;
  };

  std::vector<Entry> entries_;
  bool infinity_base_ = false;
  std::shared_ptr<LaneForm> lanes_;
};

template <>
const std::vector<u64>& FixedBaseTable<Fp>::LaneEntries() const;

namespace msm_internal {

// Reads `bits` bits of the canonical scalar starting at bit `pos`.
inline unsigned ExtractWindow(const Limbs<4>& e, std::size_t pos,
                              unsigned bits) {
  std::size_t limb = pos / 64, off = pos % 64;
  u64 v = e[limb] >> off;
  if (off + bits > 64 && limb + 1 < 4) v |= e[limb + 1] << (64 - off);
  return static_cast<unsigned>(v & ((u64{1} << bits) - 1));
}

// Longest bit length over the (canonical) scalars. Whole-VO batch
// verification folds with 128-bit small-exponent weights, so sizing the
// window loop to the actual scalar width instead of a fixed 255 bits halves
// both the bucket passes and the collapse work.
inline std::size_t MaxBitLength(const std::vector<Limbs<4>>& es) {
  std::size_t bits = 0;
  for (const auto& e : es) {
    std::size_t b = BitLengthLimbs<4>(e);
    if (b > bits) bits = b;
  }
  return bits == 0 ? 1 : bits;
}

// Pippenger window width: minimizes windows * (bucket adds + collapse adds)
// for the given term count and scalar width.
inline unsigned PippengerWindow(std::size_t n, std::size_t bits) {
  unsigned best_c = 2;
  double best = 0;
  for (unsigned c = 2; c <= 13; ++c) {
    double windows = static_cast<double>((bits + c - 1) / c);
    double cost =
        windows * (static_cast<double>(n) + 2.0 * ((1u << c) - 1));
    if (best_c == c || cost < best) {
      best = cost;
      best_c = c;
    }
  }
  return best_c;
}

// Width-w wNAF recoding of a canonical scalar: odd digits in
// {±1, ±3, ..., ±(2^w - 1)}, nonzero density ~1/(w + 1.3). One extra limb
// absorbs the carry out of the top bit, so the recoded length can reach
// 256 + 1.
inline constexpr std::size_t kWnafMaxLen = 257;

inline std::size_t WnafRecode(const Limbs<4>& e, unsigned width,
                              signed char out[kWnafMaxLen]) {
  const int window = 1 << (width + 1);
  Limbs<5> n{};
  for (int i = 0; i < 4; ++i) n[i] = e[i];
  std::size_t len = 0;
  while (!IsZeroLimbs<5>(n)) {
    int d = 0;
    if (n[0] & 1) {
      d = static_cast<int>(n[0] & static_cast<u64>(window - 1));
      if (d >= window / 2) d -= window;
      Limbs<5> v{};
      if (d > 0) {
        v[0] = static_cast<u64>(d);
        SubLimbs<5>(n, v, &n);
      } else {
        v[0] = static_cast<u64>(-d);
        AddLimbs<5>(n, v, &n);
      }
    }
    out[len++] = static_cast<signed char>(d);
    Shr1Limbs<5>(&n);
  }
  return len;
}

// wNAF width minimizing table-build plus chain additions for one point
// carrying `chain_bits` total scalar bits (summed over every scalar set the
// table serves). Costs in mixed-add units: a table holds 2^(w-1) - 1
// additions (~1.45x a mixed add before the batch normalization discount)
// plus one doubling; the chain contributes one mixed add per nonzero digit.
inline unsigned StrausWidth(std::size_t chain_bits) {
  unsigned best_w = 2;
  double best = 0;
  for (unsigned w = 2; w <= 6; ++w) {
    double table = ((1u << (w - 1)) - 1) * 1.45 + 0.7;
    double chain = static_cast<double>(chain_bits) / (w + 1.3);
    if (w == 2 || table + chain < best) {
      best = table + chain;
      best_w = w;
    }
  }
  return best_w;
}

// Affine tables of the odd multiples {1, 3, ..., 2^width - 1} * P for every
// point, laid out point-major. Two batch normalizations keep everything on
// mixed additions: {P, 2P} first, then the odd-multiple ladder built from
// the affine 2P.
template <typename F>
std::vector<CurvePoint<F>> StrausTables(const std::vector<CurvePoint<F>>& ps,
                                        unsigned width) {
  const std::size_t n = ps.size();
  const std::size_t odd = std::size_t{1} << (width - 1);
  std::vector<CurvePoint<F>> base(2 * n);
  for (std::size_t k = 0; k < n; ++k) {
    base[2 * k] = ps[k];
    base[2 * k + 1] = ps[k].Double();
  }
  // Prime-order inputs: no multiple below 2^width * P can be infinity, so
  // the affine tables are total.
  BatchToAffine<F>(std::span<CurvePoint<F>>(base));
  std::vector<CurvePoint<F>> tab(n * odd);
  for (std::size_t k = 0; k < n; ++k) {
    tab[k * odd] = base[2 * k];
    for (std::size_t i = 1; i < odd; ++i) {
      tab[k * odd + i] =
          tab[k * odd + i - 1].AddMixed(base[2 * k + 1].x, base[2 * k + 1].y);
    }
  }
  BatchToAffine<F>(std::span<CurvePoint<F>>(tab));
  return tab;
}

// One interleaved-wNAF accumulation pass over precomputed odd-multiple
// tables: a single doubling chain shared by every term, one mixed addition
// per nonzero digit.
template <typename F>
CurvePoint<F> StrausChain(const std::vector<CurvePoint<F>>& tab,
                          unsigned width,
                          const std::vector<Limbs<4>>& es) {
  const std::size_t n = es.size();
  const std::size_t odd = std::size_t{1} << (width - 1);
  std::vector<std::array<signed char, kWnafMaxLen>> naf(n);
  std::size_t maxlen = 0;
  for (std::size_t k = 0; k < n; ++k) {
    naf[k].fill(0);
    std::size_t len = WnafRecode(es[k], width, naf[k].data());
    if (len > maxlen) maxlen = len;
  }
  CurvePoint<F> acc = CurvePoint<F>::Infinity();
  for (std::size_t i = maxlen; i-- > 0;) {
    acc = acc.Double();
    for (std::size_t k = 0; k < n; ++k) {
      int d = naf[k][i];
      if (d == 0) continue;
      std::size_t idx =
          k * odd + static_cast<std::size_t>((d < 0 ? -d : d) >> 1);
      acc = d > 0 ? acc.AddMixed(tab[idx].x, tab[idx].y)
                  : acc.AddMixed(tab[idx].x, -tab[idx].y);
    }
  }
  return acc;
}

// GLV expansion for the Straus chains. A scalar set wider than 128 bits is
// split term by term, k = k1 + k2 * lambda (crypto/glv.h), into
// [k1_0 .. k1_{n-1}, k2_0 .. k2_{n-1}], the scalars for the table
// [P-tables; phi-tables] that WithPhiTables builds; the shared doubling
// chain then runs ~128 steps instead of ~255. The inputs are prime-order
// points, on which phi acts as multiplication by lambda.
inline constexpr std::size_t kGlvHalfBits = 128;

inline std::vector<Limbs<4>> GlvSplitSet(const std::vector<Limbs<4>>& es) {
  const std::size_t n = es.size();
  std::vector<Limbs<4>> out(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const GlvDecomp d = GlvSplitLimbs(es[i]);
    out[i] = d.k1;
    out[n + i] = d.k2;
  }
  return out;
}

// Appends the phi-image of an affine odd-multiple table: (2j + 1) phi(P) =
// phi((2j + 1) P) = (beta x, y), one field multiply per entry and no
// second normalization.
template <typename F>
std::vector<CurvePoint<F>> WithPhiTables(std::vector<CurvePoint<F>> tab) {
  const F& beta = GlvEndo<F>::Beta();
  const std::size_t m = tab.size();
  tab.resize(2 * m);
  for (std::size_t i = 0; i < m; ++i) {
    tab[m + i] = {tab[i].x * beta, tab[i].y, tab[i].z};
  }
  return tab;
}

// Interleaved wNAF (Straus): per-point affine odd-multiple tables plus one
// shared doubling chain. For the dozens-of-terms, short-scalar MSMs
// produced by whole-VO batch verification this beats Pippenger, whose
// per-window bucket collapse dominates at such sizes; Pippenger takes over
// once the term count amortizes its buckets (see kMsmStrausCutoff).
// Full-width scalar sets run GLV-split against the phi-extended tables.
template <typename F>
CurvePoint<F> StrausMsm(const std::vector<CurvePoint<F>>& ps,
                        const std::vector<Limbs<4>>& es) {
  const std::size_t bits = MaxBitLength(es);
  const unsigned width = StrausWidth(bits);
  std::vector<CurvePoint<F>> tab = StrausTables<F>(ps, width);
  if (bits <= kGlvHalfBits) return StrausChain<F>(tab, width, es);
  return StrausChain<F>(WithPhiTables<F>(std::move(tab)), width,
                        GlvSplitSet(es));
}

}  // namespace msm_internal

// Multi-scalar multiplication: sum_i scalars[i] * pts[i]. Sizes must match.
// A single term is a GLV multiply; from 2 up to `kMsmStrausCutoff`
// terms the shared-doubling interleaved wNAF (StrausMsm) wins; above it
// Pippenger's bucket method is used (points batch-normalized to affine so
// bucket accumulation runs on mixed additions). Both multi-term paths size
// their window loops to the widest actual scalar, so 128-bit batching
// weights cost roughly half of full-width folds; wider scalars are GLV-split
// on both paths, so no chain runs past ~128 doublings.
inline constexpr std::size_t kMsmStrausCutoff = 128;

template <typename F>
CurvePoint<F> Msm(std::span<const CurvePoint<F>> pts,
                  std::span<const Fr> scalars) {
  std::size_t n = pts.size() < scalars.size() ? pts.size() : scalars.size();

  // Drop degenerate terms once, up front.
  std::vector<CurvePoint<F>> ps;
  std::vector<Limbs<4>> es;
  ps.reserve(n);
  es.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (pts[i].IsInfinity()) continue;
    Limbs<4> e = scalars[i].ToCanonical();
    if (IsZeroLimbs<4>(e)) continue;
    ps.push_back(pts[i]);
    es.push_back(e);
  }
  if (ps.empty()) return CurvePoint<F>::Infinity();

  // One term: the GLV ladder, under the same prime-order precondition as
  // the Pippenger expansion below.
  if (ps.size() == 1) return ps[0].ScalarMulGlv(es[0]);
  if (ps.size() < kMsmStrausCutoff) {
    return msm_internal::StrausMsm<F>(ps, es);
  }

  // Pippenger path: on GLV fields with genuinely wide scalars, expand each
  // term k*P into k1*P + k2*phi(P) — twice the points, half the window
  // count, a net win because bucket accumulation is linear in terms but the
  // window loop repeats the whole bucket set. Short-scalar workloads (the
  // 128-bit batch-verification weights) skip the expansion: their window
  // loop is already half-depth and doubling their term count would only add
  // bucket work. Msm inputs are prime-order points (same precondition the
  // affine table build below relies on), so the endomorphism acts as
  // multiplication by lambda.
  if constexpr (GlvEndo<F>::kEnabled) {
    if (msm_internal::MaxBitLength(es) > 160) {
      const std::size_t n0 = ps.size();
      std::vector<CurvePoint<F>> ps2;
      std::vector<Limbs<4>> es2;
      ps2.reserve(2 * n0);
      es2.reserve(2 * n0);
      for (std::size_t i = 0; i < n0; ++i) {
        GlvDecomp d = GlvSplitLimbs(es[i]);
        if (!IsZeroLimbs<4>(d.k1)) {
          ps2.push_back(ps[i]);
          es2.push_back(d.k1);
        }
        if (!IsZeroLimbs<4>(d.k2)) {
          ps2.push_back(ps[i].Endo());
          es2.push_back(d.k2);
        }
      }
      ps.swap(ps2);
      es.swap(es2);
    }
  }

  BatchToAffine<F>(std::span<CurvePoint<F>>(ps));

  const std::size_t scalar_bits = msm_internal::MaxBitLength(es);
  const unsigned c = msm_internal::PippengerWindow(ps.size(), scalar_bits);
  const std::size_t windows = (scalar_bits + c - 1) / c;
  std::vector<CurvePoint<F>> buckets((std::size_t{1} << c) - 1);

  CurvePoint<F> result = CurvePoint<F>::Infinity();
  for (std::size_t w = windows; w-- > 0;) {
    if (w + 1 != windows) {
      for (unsigned b = 0; b < c; ++b) result = result.Double();
    }
    for (auto& b : buckets) b = CurvePoint<F>::Infinity();
    for (std::size_t i = 0; i < ps.size(); ++i) {
      unsigned d = msm_internal::ExtractWindow(es[i], w * c, c);
      if (d != 0) buckets[d - 1] = buckets[d - 1].AddMixed(ps[i].x, ps[i].y);
    }
    // Suffix sums: sum_d d * bucket[d] via two running additions.
    CurvePoint<F> running = CurvePoint<F>::Infinity();
    CurvePoint<F> window_sum = CurvePoint<F>::Infinity();
    for (std::size_t b = buckets.size(); b-- > 0;) {
      running = running + buckets[b];
      window_sum = window_sum + running;
    }
    result = result + window_sum;
  }
  return result;
}

G1 G1Msm(std::span<const G1> pts, std::span<const Fr> scalars);
G2 G2Msm(std::span<const G2> pts, std::span<const Fr> scalars);

// Multi-set MSM: folds the SAME points under several scalar sets, returning
// one result per set. The per-point odd-multiple tables — the fixed cost of
// the interleaved-wNAF path — are built once and shared by every set, so k
// folds over n points cost one table build plus k accumulation chains
// instead of k full MSMs. Whole-VO batch verification leans on this twice:
// the signature Y components fold under both the column-0 and W-equation
// weights, and the message-side G2 points fold under both the rho and
// mu*rho weight vectors. A set wider than 128 bits runs GLV-split against
// the phi-extended table (msm_internal::WithPhiTables, built once for the
// first such set). Every set must have exactly pts.size() scalars.
template <typename F>
std::vector<CurvePoint<F>> MsmShared(
    std::span<const CurvePoint<F>> pts,
    std::span<const std::vector<Fr>> scalar_sets) {
  const std::size_t sets = scalar_sets.size();
  std::vector<CurvePoint<F>> out(sets, CurvePoint<F>::Infinity());
  if (sets == 0) return out;

  // Drop points at infinity from every set (they contribute the identity);
  // zero scalars recode to an empty wNAF and cost nothing, so they stay.
  std::vector<CurvePoint<F>> ps;
  std::vector<std::vector<Limbs<4>>> es(sets);
  ps.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].IsInfinity()) continue;
    ps.push_back(pts[i]);
    for (std::size_t s = 0; s < sets; ++s) {
      es[s].push_back(scalar_sets[s][i].ToCanonical());
    }
  }
  if (ps.empty()) return out;
  if (ps.size() == 1) {  // one prime-order point: GLV ladder per set
    for (std::size_t s = 0; s < sets; ++s) {
      if (!IsZeroLimbs<4>(es[s][0])) out[s] = ps[0].ScalarMulGlv(es[s][0]);
    }
    return out;
  }
  std::vector<std::size_t> bits(sets);
  std::size_t chain_bits = 0;
  for (std::size_t s = 0; s < sets; ++s) {
    bits[s] = msm_internal::MaxBitLength(es[s]);
    chain_bits += bits[s];
  }
  const unsigned width = msm_internal::StrausWidth(chain_bits);
  std::vector<CurvePoint<F>> tab = msm_internal::StrausTables<F>(ps, width);
  std::vector<CurvePoint<F>> tab_phi;  // [tab; phi(tab)], on first wide set
  for (std::size_t s = 0; s < sets; ++s) {
    if (bits[s] <= msm_internal::kGlvHalfBits) {
      out[s] = msm_internal::StrausChain<F>(tab, width, es[s]);
      continue;
    }
    if (tab_phi.empty()) tab_phi = msm_internal::WithPhiTables<F>(tab);
    out[s] = msm_internal::StrausChain<F>(tab_phi, width,
                                          msm_internal::GlvSplitSet(es[s]));
  }
  return out;
}

std::vector<G1> G1MsmShared(std::span<const G1> pts,
                            std::span<const std::vector<Fr>> scalar_sets);
std::vector<G2> G2MsmShared(std::span<const G2> pts,
                            std::span<const std::vector<Fr>> scalar_sets);

// Fixed-base tables for the standard G1/G2 generators (built on first use;
// G1Mul/G2Mul in curve.cc route through these).
const FixedBaseTable<Fp>& G1GeneratorTable();
const FixedBaseTable<Fp2>& G2GeneratorTable();

}  // namespace apqa::crypto

#endif  // APQA_CRYPTO_MSM_H_
