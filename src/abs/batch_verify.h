// Whole-VO batched ABS verification.
//
// The library's one ABS verification equation. A verification object
// carries dozens of ABS signatures; BatchAccumulator pours every signature's
// weighted pairing equations into a single pairing product over the
// verification key's fixed prepared G2 bases, so a whole VO — its epoch
// attestation included — costs ONE final exponentiation over at most seven
// Miller pairs: A, B, a0, h, h0 and two fresh message-side pairs.
// Abs::Verify is the batch of one.
//
// Soundness: each signature k draws its own fresh small-exponent weights
// delta_k, rho_{k,j} (128-bit, nonzero, from the caller's RNG). The grand
// product is then a random linear combination of all individual equations
// with independent coefficients, so a passing product implies every
// signature verifies except with probability <= n * 2^-128 — no nested
// outer weights are needed. Completeness is deterministic: valid signatures
// satisfy their equations identically, so the product of their weighted
// forms is exactly one.
//
// Row bases: row i of a signature pairs S_i against X_u = A + u*B (u the
// row's role scalar). Terms are bucketed per role, and the buckets fold
// onto the two fixed bases by bilinearity — an exact identity, not a
// further random combination:
//   prod_u e(M_u, A + u*B) = e(sum_u M_u, A) * e(sum_u u*M_u, B).
// A bucket of two or more points is first reduced to one point M_u by an
// MSM and enters the A/B fold with weights (1, u); a single-point bucket
// enters it directly with weights (c, u*c). Both sides fold the same points,
// so they run as one shared-table multi-set MSM (crypto::MsmShared).
//
// Message-side aggregation: signature k's fresh pair e(-(C g^{mu_k}),
// sum_j rho_{k,j} P_{k,j}) would need a fresh G2Prepared per signature.
// Instead it is split over the shared G1 points C and g:
//   e(-C, sum_k sum_j rho_{k,j} P_{k,j}) * e(-g, sum_k mu_k sum_j ...)
// — two G2 MSMs over the SAME points under different weights, as are the -Y
// folds against h (column-0 weight) and h0 (W-equation weight); both run as
// shared-table multi-set MSMs.
#ifndef APQA_ABS_BATCH_VERIFY_H_
#define APQA_ABS_BATCH_VERIFY_H_

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "abs/abs.h"

namespace apqa::abs {

class BatchAccumulator {
 public:
  // Runs task(i) for every i in [0, n); tasks are independent. A default
  // (empty) runner executes serially on the calling thread.
  using ParallelRunner =
      std::function<void(std::size_t n,
                         const std::function<void(std::size_t)>& task)>;

  // The key must outlive the accumulator (Check pairs against its prepared
  // tables).
  explicit BatchAccumulator(const VerifyKey& mvk) : mvk_(mvk) {}

  // Folds one signature's equations into the batch under fresh weights from
  // `rng`. Returns false — leaving the batch untouched — iff the signature
  // fails the structural checks (component counts, Y != infinity); those
  // failures are deterministic, so callers can blame them without running
  // the batch.
  bool Accumulate(const std::vector<std::uint8_t>& msg,
                  const Policy& predicate, const Signature& sig, Rng* rng);

  // Number of signatures successfully accumulated.
  std::size_t Size() const { return count_; }

  // Evaluates the whole product: true iff (whp) every accumulated signature
  // is valid. The independent MSMs fan out over `runner` when provided; the
  // final multi-pairing stays serial. An empty batch passes. Single use:
  // after Check the accumulator is spent.
  bool Check(const ParallelRunner& runner = {});

  // Miller pairs the last Check evaluated (pairs with an infinity side are
  // neutral and skipped): at most 7, whatever the batch holds.
  std::size_t PairCount() const { return pairs_; }

 private:
  // S rows of one role, with their column-fold weights c_i.
  struct RoleBucket {
    Fr u;  // RoleScalar of the role
    std::vector<G1> pts;
    std::vector<Fr> weights;
  };

  const VerifyKey& mvk_;
  std::map<std::string, RoleBucket> roles_;  // keyed by role label
  // delta * e(W, A0) terms of the W-equations.
  std::vector<G1> w_pts_;
  std::vector<Fr> w_delta_;
  // Deferred -Y folds: against h under the column-0 weight and against h0
  // under the W-equation weight — one shared-table multi-set G1 MSM.
  std::vector<G1> y_pts_;
  std::vector<Fr> y_rho0_;
  std::vector<Fr> y_delta_;
  // Deferred message-side terms: e(-C, sum rho_j P_j) and
  // e(-g, sum mu*rho_j P_j) across all signatures — one shared-table
  // multi-set G2 MSM.
  std::vector<G2> p_pts_;
  std::vector<Fr> p_rho_;
  std::vector<Fr> p_murho_;
  std::size_t count_ = 0;
  std::size_t pairs_ = 0;
};

}  // namespace apqa::abs

#endif  // APQA_ABS_BATCH_VERIFY_H_
