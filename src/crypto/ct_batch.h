// One list of constant-pattern scalar multiplications, run together.
//
// ABS signing and relaxation multiply many points by secret scalars:
// variable-base GLV ladders (CtScalarMul) on signature components and
// fixed-base walks (FixedBaseTable::MulCt) on the verification key's
// tables, on G1 and on G2. Each is a constant-pattern ladder, so eight of
// them on one group can run side by side in the eight 64-bit lanes of an
// AVX-512 IFMA register with no secret-dependent control flow
// (accel::G1CtLadderX8 / G1CtFixedBaseX8 and their G2 counterparts,
// crypto/mont_accel.h). The signing stage (abs::SignBatch) queues the
// multiplies of up to 64 signatures into one CtMulBatch, runs it once, and
// then reads the results by index.
//
// Run() cuts each group's jobs by one rule: ladders in queue order, then
// each table's walks in queue order, tables in order of first use, in
// groups of at most eight. A group of at least kMinLaneJobs (G1) or
// kMinG2LaneJobs (G2) jobs runs on the lanes when
// accel::IfmaLanesActive(); any other group, and every job when the lanes
// are off (APQA_FORCE_PORTABLE=1 or a CPU without IFMA), runs the scalar
// kernels one by one. The lane kernels compute the same field elements as
// the scalar ones, so every result is bit-identical to the scalar call
// whichever way it ran (CtLanes in tests/ct_check_test.cc).
#ifndef APQA_CRYPTO_CT_BATCH_H_
#define APQA_CRYPTO_CT_BATCH_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "crypto/ct.h"
#include "crypto/msm.h"

namespace apqa::crypto {

class CtMulBatch {
 public:
  // A G1 group with fewer jobs runs the scalar kernels. One lane pass costs
  // the same for one job as for eight: about 1.35 scalar ladders, or 1.3
  // scalar fixed-base walks (bench_msm_micro ct_mul_g1_x8 and
  // ct_fixed_base_g1_x8 against ct_mul_g1 and ct_fixed_base_g1), so the
  // lanes win from two jobs on.
  static constexpr std::size_t kMinLaneJobs = 2;
  // The same rule on G2: one lane pass costs about 1.7 scalar ladders or
  // walks (ct_mul_g2_x8 and ct_fixed_base_g2_x8 against ct_mul_g2 and
  // ct_fixed_base_g2), so the lanes win from two jobs on there too.
  static constexpr std::size_t kMinG2LaneJobs = 2;

  // Queue CtScalarMul(base, k) or tab.MulCt(k) and return the index of its
  // result among the results of its group (G1 or G2). A queued table must
  // be Initialized() and outlive Run(). `base` must lie in the prime-order
  // subgroup, as CtScalarMul requires.
  std::size_t Add(const G1& base, const SecretFr& k);
  std::size_t Add(const FixedBaseTable<Fp>& tab, const SecretFr& k);
  std::size_t Add(const G2& base, const SecretFr& k);
  std::size_t Add(const FixedBaseTable<Fp2>& tab, const SecretFr& k);

  // Runs fn(i) once for every i in [0, n), in any order and on any
  // threads, and returns when all have finished.
  using ParallelFor = std::function<void(
      std::size_t n, const std::function<void(std::size_t)>& fn)>;

  // Runs every queued multiply, once per batch. Each group is one unit of
  // work; with `parallel_for` the units are spread over it. The results do
  // not depend on how the units ran.
  void Run(const ParallelFor& parallel_for = nullptr);

  const G1& g1(std::size_t i) const { return g1_out_[i]; }
  const G2& g2(std::size_t i) const { return g2_out_[i]; }

 private:
  // A walk of `table`, or (no table) a ladder on the base that the job's
  // result slot holds until Run() overwrites it with the product.
  template <typename F>
  struct Job {
    const FixedBaseTable<F>* table;
    SecretFr k;
  };

  // A group: [begin, end) of Run()'s job order, on G2 or on G1.
  struct Unit {
    std::size_t begin, end;
    bool g2;
  };

  // Appends the job indices of `queue` to `order` in group order and the
  // groups to `units`.
  template <typename F>
  static void PlanGroups(const std::vector<Job<F>>& queue,
                         std::vector<std::size_t>* order,
                         std::vector<Unit>* units, bool g2);

  // Runs the n jobs queue[jobs[0..n)], one group, into their result slots.
  template <typename F>
  static void RunGroup(const std::vector<Job<F>>& queue,
                       std::vector<CurvePoint<F>>* results,
                       const std::size_t* jobs, std::size_t n);

  std::vector<Job<Fp>> g1_;
  std::vector<Job<Fp2>> g2_;
  std::vector<G1> g1_out_;
  std::vector<G2> g2_out_;
};

}  // namespace apqa::crypto

#endif  // APQA_CRYPTO_CT_BATCH_H_
