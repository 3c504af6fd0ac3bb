// Micro-benchmark (ablation): the scalar-multiplication engine vs. the
// generic kernels it replaced.
//
//   mont-kernel   — portable CIOS Montgomery multiply vs. the dispatched
//                   (BMI2/ADX where available) kernel, a chained a = a * b
//                   whose product round-trips through memory each step, the
//                   same portable/dispatched pair for Fp addition and
//                   subtraction, plus bit-match sweeps that abort on any
//                   representation divergence.
//   fixed-base    — plain width-4 wNAF vs. the GLV dual-track wNAF vs.
//                   FixedBaseTable::Mul on the same generator, plus the
//                   constant-pattern variable-base GLV ladder (CtScalarMul)
//                   that every secret-scalar multiply of ABS.Relax runs.
//   subgroup      — the decode-time prime-order-subgroup checks on affine
//                   subgroup points: G1 phi(P) + P == [|z|]([|z|]P), G2
//                   psi(P) == [z]P (check.sh gates g2_subgroup_check
//                   against g2_wnaf), and the G1 check in groups of eight
//                   as the decoders' batched admission runs it
//                   (g1_subgroup_check_x8, per point).
//   msm           — Pippenger G1Msm/G2Msm vs. the naive ScalarMul-and-add
//                   loop, n = 4..256.
//   abs           — end-to-end ABS sign/verify at a fixed predicate length,
//                   ABS.Relax of that signature to a 10-role super policy
//                   (the SP's per-node VO cost), and ABS.Sign of a wide
//                   multi-column DNF (the DO's per-node re-signing cost).
//
// Every timed row is the median of five runs (three with APQA_BENCH_FAST=1),
// each the mean over its iterations; stdout shows the runs' min-max spread
// next to it, so a re-capture can tell a code change from host load. Every
// row is also emitted through the JSON trajectory sink (bench_util.h):
//   APQA_BENCH_JSON=BENCH_msm.json ./bench_msm_micro   (or --json=PATH)
#include <algorithm>
#include <cinttypes>
#include <vector>

#include "abs/abs.h"
#include "bench_util.h"
#include "crypto/ct.h"
#include "crypto/ct_batch.h"
#include "crypto/msm.h"
#include "crypto/serde.h"

namespace {

using namespace apqa;
using namespace apqa::crypto;
using apqa::bench::RecordJson;
using apqa::bench::Timer;

constexpr const char* kBench = "msm_micro";

// Keeps results alive without pulling in google-benchmark.
template <typename T>
void Sink(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// Milliseconds per call of one row: the median over repeated runs, and
// the fastest and slowest run.
struct Ms {
  double median, lo, hi;
  Ms operator/(double d) const { return {median / d, lo / d, hi / d}; }
};

int Repeats() {
  static const int repeats = apqa::bench::FastMode() ? 3 : 5;
  return repeats;
}

// Runs fn `iters` times per run, Repeats() runs, and returns the runs'
// mean milliseconds per call.
template <typename Fn>
Ms TimeMs(int iters, Fn&& fn) {
  std::vector<double> runs;
  for (int r = 0; r < Repeats(); ++r) {
    Timer t;
    for (int i = 0; i < iters; ++i) fn();
    runs.push_back(t.ElapsedMs() / iters);
  }
  std::sort(runs.begin(), runs.end());
  return {runs[runs.size() / 2], runs.front(), runs.back()};
}

void Report(const char* row, const Ms& t) {
  std::printf("  %-28s %10.3f ms  [%.3f-%.3f]\n", row, t.median, t.lo, t.hi);
  RecordJson(kBench, row, t.median, "ms");
}

// An untimed sweep's one wall time (the bit-match rows).
void Report(const char* row, double ms) {
  std::printf("  %-28s %10.3f ms\n", row, ms);
  RecordJson(kBench, row, ms, "ms");
}

// The speedup rows: medians against medians.
void ReportSpeedup(const char* shown, const char* row, const Ms& base,
                   const Ms& fast) {
  std::printf("  %-28s %10.2fx\n", shown, base.median / fast.median);
  RecordJson(kBench, row, base.median / fast.median, "x");
}

// A serial chain of `links` field additions or subtractions, each taking
// the running value as its second operand (so a subtraction chain does not
// just step down by a constant). Both arms are one out-of-line call per
// link: the asm kernel, or the noinline portable AddPortable/SubPortable.
template <typename Op>
void FpChain(const std::vector<Fp>& xs, const std::vector<Fp>& ys, int links,
             Op op) {
  Fp acc = xs[0];
  for (int j = 0; j < links; ++j) acc = op(ys[j & 63], acc);
  Sink(acc);
}

// Portable CIOS vs. the dispatched Montgomery kernel. The two arms must be
// bit-identical on the Montgomery representation — the sweep aborts on the
// first mismatch, so the mont_kernel_bitmatch row doubles as a gate (a
// missing row in check.sh's perf smoke means the oracle tripped).
void BenchMontKernel(Rng* rng, bool fast) {
  std::printf("Montgomery kernel: portable CIOS vs dispatch (accel %s)\n",
              Fp::UsingAccelKernel() ? "active" : "inactive");
  // 1 when the asm kernels are dispatched, 0 when both arms of every row
  // below time the portable code (check.sh skips its speed gate then).
  RecordJson(kBench, "accel_kernels_active", Fp::UsingAccelKernel() ? 1 : 0,
             "count");
  constexpr int kN = 64;
  std::vector<Fp> xs(kN), ys(kN);
  for (auto& x : xs) {
    Limbs<6> l;
    rng->Fill(l.data(), sizeof(l));
    l[5] &= (u64{1} << 57) - 1;
    x = Fp::FromCanonicalReduce(l);
  }
  for (auto& y : ys) {
    Limbs<6> l;
    rng->Fill(l.data(), sizeof(l));
    l[5] &= (u64{1} << 57) - 1;
    y = Fp::FromCanonicalReduce(l);
  }
  // Serial dependency chains so the timing reflects multiply latency, not
  // how many independent products the OoO window can overlap.
  constexpr int kChain = 4096;
  int iters = fast ? 20 : 200;
  const Ms portable = TimeMs(iters, [&] {
    Fp acc = xs[0];
    for (int j = 0; j < kChain; ++j) acc = Fp::MulPortable(acc, ys[j & 63]);
    Sink(acc);
  });
  Report("mont_mul_portable", portable);
  const Ms accel = TimeMs(iters, [&] {
    Fp acc = xs[0];
    for (int j = 0; j < kChain; ++j) acc = acc * ys[j & 63];
    Sink(acc);
  });
  Report("mont_mul_accel", accel);
  ReportSpeedup("mont_speedup", "mont_mul_speedup", portable, accel);
  // The same chain as callers run it: each product is copied out to memory
  // and read back as the next operand, so the row also sees the
  // store-to-load forwarding of the kernel's result stores and the cost of
  // operator* around the kernel, which the register-resident chain above
  // can hide.
  Report("mont_mul_chained", TimeMs(iters, [&] {
           Fp acc = xs[0];
           for (int j = 0; j < kChain; ++j) {
             acc = acc * ys[j & 63];
             asm volatile("" : : "g"(&acc) : "memory");
           }
           Sink(acc);
         }));

  Timer t;
  for (int a = 0; a < kN; ++a) {
    for (int b = 0; b < kN; ++b) {
      Fp d = xs[static_cast<std::size_t>(a)] * ys[static_cast<std::size_t>(b)];
      Fp p = Fp::MulPortable(xs[static_cast<std::size_t>(a)],
                             ys[static_cast<std::size_t>(b)]);
      if (d.MontgomeryRepr() != p.MontgomeryRepr()) {
        std::fprintf(stderr, "BENCH BUG: accel/portable kernel mismatch\n");
        std::abort();
      }
    }
  }
  Report("mont_kernel_bitmatch", t.ElapsedMs());

  // The modular add/subtract kernels next to the multiply, timed the same
  // way (serial chains; an add is a quarter of a multiply, so 4x the links).
  constexpr int kAddChain = 4 * kChain;
  const auto add = [](const Fp& a, const Fp& b) { return a + b; };
  const auto sub = [](const Fp& a, const Fp& b) { return a - b; };
  Report("fp_add_portable", TimeMs(iters, [&] {
           FpChain(xs, ys, kAddChain, Fp::AddPortable);
         }));
  Report("fp_add_accel",
         TimeMs(iters, [&] { FpChain(xs, ys, kAddChain, add); }));
  Report("fp_sub_portable", TimeMs(iters, [&] {
           FpChain(xs, ys, kAddChain, Fp::SubPortable);
         }));
  Report("fp_sub_accel",
         TimeMs(iters, [&] { FpChain(xs, ys, kAddChain, sub); }));

  // Bit-match sweep for + and -, aborting like the multiply's: every pair
  // of the operands above, both orders, plus doubling and negation.
  t.Reset();
  for (const Fp& a : xs) {
    for (const Fp& b : ys) {
      if ((a + b).MontgomeryRepr() != Fp::AddPortable(a, b).MontgomeryRepr() ||
          (a - b).MontgomeryRepr() != Fp::SubPortable(a, b).MontgomeryRepr() ||
          (b - a).MontgomeryRepr() != Fp::SubPortable(b, a).MontgomeryRepr()) {
        std::fprintf(stderr, "BENCH BUG: accel/portable add/sub mismatch\n");
        std::abort();
      }
    }
    if (a.Double().MontgomeryRepr() !=
            Fp::AddPortable(a, a).MontgomeryRepr() ||
        (-a).MontgomeryRepr() !=
            Fp::SubPortable(Fp::Zero(), a).MontgomeryRepr()) {
      std::fprintf(stderr, "BENCH BUG: accel/portable add/sub mismatch\n");
      std::abort();
    }
  }
  Report("fp_addsub_bitmatch", t.ElapsedMs());
}

void BenchFixedBase(Rng* rng, int iters) {
  std::printf("fixed-base vs wNAF vs GLV (generator, %d iters)\n", iters);
  std::vector<Fr> ks(static_cast<std::size_t>(iters));
  for (auto& k : ks) k = rng->NextNonZeroFr();
  int i = 0;
  const G1& g1 = G1Generator();
  // Plain width-4 wNAF over the full 255-bit scalar (the pre-GLV
  // ScalarMul): the baseline the GLV dual-track is gated against.
  const Ms wnaf1 = TimeMs(iters, [&] {
    Sink(g1.ScalarMulCanonical(
        ks[static_cast<std::size_t>(i++ % iters)].ToCanonical()));
  });
  Report("g1_wnaf", wnaf1);
  i = 0;
  const Ms glv1 = TimeMs(iters, [&] {
    Sink(g1.ScalarMul(ks[static_cast<std::size_t>(i++ % iters)]));
  });
  Report("g1_mul_glv", glv1);
  ReportSpeedup("g1_glv_speedup", "g1_glv_speedup", wnaf1, glv1);
  // Secret-scalar twin of g1_mul_glv: same scalars, constant-pattern GLV
  // ladder (scripts/check.sh gates ct_mul_g1 <= 2 * g1_mul_glv).
  i = 0;
  const Ms ct1 = TimeMs(iters, [&] {
    Sink(CtScalarMul(g1, SecretFr(ks[static_cast<std::size_t>(i++ % iters)])));
  });
  Report("ct_mul_g1", ct1);
  i = 0;
  const FixedBaseTable<Fp>& t1 = G1GeneratorTable();
  const Ms fixed1 = TimeMs(iters, [&] {
    Sink(t1.Mul(ks[static_cast<std::size_t>(i++ % iters)]));
  });
  Report("g1_fixed_base", fixed1);
  ReportSpeedup("g1_speedup", "g1_fixed_base_speedup", wnaf1, fixed1);
  // Secret-scalar twin of g1_fixed_base: the constant-pattern walk of the
  // same table (scripts/check.sh gates ct_fixed_base_g1 <= 0.6 * ct_mul_g1).
  i = 0;
  const Ms ct_fixed1 = TimeMs(iters, [&] {
    Sink(t1.MulCt(SecretFr(ks[static_cast<std::size_t>(i++ % iters)])));
  });
  Report("ct_fixed_base_g1", ct_fixed1);
  // The same ladders and walks eight to a CtMulBatch group (the IFMA lanes
  // where active), per multiply, on G1 here and on G2 below
  // (scripts/check.sh gates each at 0.5x its scalar row when
  // ifma_lanes_active is 1).
  auto time_x8 = [&](auto add) {
    const int groups = (iters + 7) / 8;
    int g = 0;
    return TimeMs(groups, [&] {
             CtMulBatch batch;
             for (int j = 0; j < 8; ++j) {
               add(&batch, SecretFr(ks[static_cast<std::size_t>(
                               (8 * g + j) % iters)]));
             }
             ++g;
             batch.Run();
             Sink(batch);
           }) /
           8;
  };
  Report("ct_mul_g1_x8", time_x8([&](CtMulBatch* b, const SecretFr& k) {
           b->Add(g1, k);
         }));
  Report("ct_fixed_base_g1_x8",
         time_x8([&](CtMulBatch* b, const SecretFr& k) { b->Add(t1, k); }));

  i = 0;
  const G2& g2 = G2Generator();
  const Ms wnaf2 = TimeMs(iters, [&] {
    Sink(g2.ScalarMul(ks[static_cast<std::size_t>(i++ % iters)]));
  });
  Report("g2_wnaf", wnaf2);
  i = 0;
  const Ms ct2 = TimeMs(iters, [&] {
    Sink(CtScalarMul(g2, SecretFr(ks[static_cast<std::size_t>(i++ % iters)])));
  });
  Report("ct_mul_g2", ct2);
  i = 0;
  const FixedBaseTable<Fp2>& t2 = G2GeneratorTable();
  const Ms fixed2 = TimeMs(iters, [&] {
    Sink(t2.Mul(ks[static_cast<std::size_t>(i++ % iters)]));
  });
  Report("g2_fixed_base", fixed2);
  ReportSpeedup("g2_speedup", "g2_fixed_base_speedup", wnaf2, fixed2);
  i = 0;
  const Ms ct_fixed2 = TimeMs(iters, [&] {
    Sink(t2.MulCt(SecretFr(ks[static_cast<std::size_t>(i++ % iters)])));
  });
  Report("ct_fixed_base_g2", ct_fixed2);
  Report("ct_mul_g2_x8", time_x8([&](CtMulBatch* b, const SecretFr& k) {
           b->Add(g2, k);
         }));
  Report("ct_fixed_base_g2_x8",
         time_x8([&](CtMulBatch* b, const SecretFr& k) { b->Add(t2, k); }));
}

// Subgroup membership on affine (Z = 1) subgroup points, as ReadG1/ReadG2
// see them after the curve-equation check. A rejected honest point is a
// bench bug, not a timing.
template <typename F>
Ms TimeSubgroupCheck(const CurvePoint<F>& gen, Rng* rng, int iters) {
  std::vector<CurvePoint<F>> pts(static_cast<std::size_t>(iters));
  for (auto& p : pts) p = gen.ScalarMul(rng->NextNonZeroFr());
  BatchToAffine<F>(std::span<CurvePoint<F>>(pts));
  int i = 0;
  return TimeMs(iters, [&] {
    if (!pts[static_cast<std::size_t>(i++ % iters)].InPrimeOrderSubgroup()) {
      std::fprintf(stderr, "BENCH BUG: subgroup point rejected\n");
      std::abort();
    }
  });
}

// The same G1 check as decoders run it: groups of eight points through
// the batched pass (the eight-lane IFMA kernel where active), timed per
// point so the row compares with g1_subgroup_check.
Ms TimeSubgroupCheckX8(Rng* rng, int iters) {
  const int groups = (iters + 7) / 8;
  std::vector<G1> pts(static_cast<std::size_t>(groups) * 8);
  for (auto& p : pts) p = G1Mul(rng->NextNonZeroFr());
  BatchToAffine<Fp>(std::span<G1>(pts));
  int g = 0;
  return TimeMs(groups, [&] {
    std::span<const G1> group(pts.data() + 8 * (g++ % groups), 8);
    if (FirstOutsideG1Subgroup(group) != group.size()) {
      std::fprintf(stderr, "BENCH BUG: subgroup point rejected\n");
      std::abort();
    }
  }) / 8;
}

void BenchSubgroup(Rng* rng, int iters) {
  std::printf("prime-order subgroup check (%d affine points, IFMA lanes %s)\n",
              iters, accel::IfmaLanesActive() ? "active" : "inactive");
  // 1 when g1_subgroup_check_x8 ran on the IFMA lanes, 0 when it timed the
  // scalar test (check.sh skips its speed gate then).
  RecordJson(kBench, "ifma_lanes_active", accel::IfmaLanesActive() ? 1 : 0,
             "count");
  Report("g1_subgroup_check", TimeSubgroupCheck(G1Generator(), rng, iters));
  Report("g1_subgroup_check_x8", TimeSubgroupCheckX8(rng, iters));
  Report("g2_subgroup_check", TimeSubgroupCheck(G2Generator(), rng, iters));
}

void BenchMsm(Rng* rng, bool fast) {
  std::printf("Pippenger MSM vs naive sum\n");
  for (std::size_t n : {4u, 16u, 64u, 256u}) {
    if (fast && n > 64) break;
    std::vector<G1> pts(n);
    std::vector<Fr> ks(n);
    for (std::size_t j = 0; j < n; ++j) {
      pts[j] = G1Mul(rng->NextNonZeroFr());
      ks[j] = rng->NextNonZeroFr();
    }
    int iters = n <= 16 ? 20 : 5;
    const Ms naive = TimeMs(iters, [&] {
      G1 acc = G1::Infinity();
      for (std::size_t j = 0; j < n; ++j) acc = acc + pts[j].ScalarMul(ks[j]);
      Sink(acc);
    });
    const Ms pip = TimeMs(iters, [&] {
      Sink(G1Msm(std::span<const G1>(pts),
                              std::span<const Fr>(ks)));
    });
    char row[64];
    std::snprintf(row, sizeof(row), "g1_msm_naive_n%zu", n);
    Report(row, naive);
    std::snprintf(row, sizeof(row), "g1_msm_pippenger_n%zu", n);
    Report(row, pip);
    std::printf("  %-28s %10.2fx\n", "speedup", naive.median / pip.median);
  }
}

void BenchAbs(bool fast) {
  std::printf("ABS end-to-end (predicate length 12)\n");
  crypto::Rng rng(11);
  abs::MasterKey msk;
  abs::VerifyKey mvk;
  abs::Abs::Setup(&rng, &msk, &mvk);
  policy::RoleSet universe;
  for (int i = 0; i < 16; ++i) universe.insert("Role" + std::to_string(i));
  abs::SigningKey sk = abs::Abs::KeyGen(msk, universe, &rng);
  std::vector<policy::Clause> clauses;
  for (int i = 0; i + 1 < 12; i += 2) {
    clauses.push_back({"Role" + std::to_string(i),
                       "Role" + std::to_string(i + 1)});
  }
  policy::Policy pred = policy::Policy::FromDnfClauses(clauses);
  std::vector<std::uint8_t> msg = {'m', 's', 'm'};

  int iters = fast ? 2 : 5;
  const Ms sign_ms = TimeMs(iters, [&] {
    Sink(*abs::Abs::Sign(mvk, sk, msg, pred, &rng));
  });
  Report("abs_sign_len12", sign_ms);
  auto sig = abs::Abs::Sign(mvk, sk, msg, pred, &rng);
  const Ms verify_ms = TimeMs(iters, [&] {
    Sink(abs::Abs::Verify(mvk, msg, pred, *sig));
  });
  Report("abs_verify_len12", verify_ms);

  // A user holding the second role of every clause lacks the other ten
  // roles: six rows merge from the signature, four are fresh.
  policy::RoleSet lacks;
  for (int i = 0; i < 16; ++i) {
    if (i >= 12 || i % 2 == 0) lacks.insert("Role" + std::to_string(i));
  }
  const Ms relax_ms = TimeMs(iters, [&] {
    Sink(*abs::Abs::Relax(mvk, *sig, pred, msg, lacks, &rng));
  });
  Report("abs_relax_len10", relax_ms);

  // A node policy shaped like the AP²G-tree's upper levels: single roles
  // OR'ed with two-role AND clauses — 10 MSP rows, 4 columns, a -1 entry
  // in every AND clause. More iterations than the rows above: the DO signs
  // this shape on every update, so its row is the one compared across
  // commits.
  policy::Policy dnf = policy::Policy::Parse(
      "Role0 | Role1 | Role2 | Role3 | (Role4 & Role5) | (Role6 & Role7) | "
      "(Role8 & Role9)");
  const Ms dnf_ms = TimeMs(fast ? 2 : 20, [&] {
    Sink(*abs::Abs::Sign(mvk, sk, msg, dnf, &rng));
  });
  Report("abs_sign_dnf", dnf_ms);

  // The same signature 64 at a time through one signing stage, as the DO
  // signs a tree: per-signature cost, so it reads against abs_sign_dnf.
  constexpr int kBatch = static_cast<int>(abs::SignBatch::kRunEvery);
  std::vector<abs::Signature> sigs(kBatch);
  const Ms dnf64_ms =
      TimeMs(fast ? 1 : 3, [&] {
        abs::SignBatch batch(
            [&sigs](std::size_t i) -> abs::Signature& { return sigs[i]; });
        for (int k = 0; k < kBatch; ++k) {
          if (!batch.Sign(mvk, sk, msg, dnf, &rng)) std::abort();
        }
        batch.Run();
        Sink(sigs.back());
      }) /
      kBatch;
  Report("abs_sign_dnf_x64", dnf64_ms);
}

}  // namespace

int main(int argc, char** argv) {
  apqa::bench::EnableJsonFromArgs(argc, argv);
  apqa::bench::PrintHeader("MSM micro",
                           "scalar-multiplication engine ablation");
  bool fast = apqa::bench::FastMode();
  Rng rng(20260807);
  BenchMontKernel(&rng, fast);
  BenchFixedBase(&rng, fast ? 50 : 400);
  BenchSubgroup(&rng, fast ? 50 : 400);
  BenchMsm(&rng, fast);
  BenchAbs(fast);
  return 0;
}
