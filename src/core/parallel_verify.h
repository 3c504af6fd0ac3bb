// Whole-VO signature batching with deterministic blame, and the one verify
// driver every user-side verifier runs through (RunVerify, at the bottom).
//
// Every verifier walks its VO once, doing the cheap structural checks
// (coverage, key agreement, policy evaluation) serially in the original
// order, and queues the expensive ABS signature checks into a SigBatch,
// behind the VO's epoch attestations. The batch folds ALL queued
// signatures into one abs::BatchAccumulator — a single pairing product of
// at most seven Miller pairs and one final exponentiation for the entire
// VO — instead of running one multi-pairing per signature.
//
// Blame stays byte-identical to the sequential verifier. Jobs are queued in
// the exact order the sequential verifier would have evaluated them, and
// FirstFailure reports the *lowest* failing job index:
//   - structural failures (component counts, Y at infinity) are found
//     deterministically while accumulating and bound the batch to the jobs
//     before them;
//   - if the whole-batch check fails, a prefix bisection (log2 n re-batches,
//     each over ~half the remaining range) recovers the lowest
//     cryptographically failing index — same index the sequential verifier
//     would return, up to the 2^-128 batching soundness bound.
// The per-signature path is retained as the test and bench blame oracle:
// under a ScopedPerSignatureVerify guard every job runs its own Abs::Verify
// (a batch of one), serially, stopping at the first failure.
//
// Thread-safety: jobs only read the VO, the verify key's prepared tables
// (immutable once built), and per-call randomness. The batch's MSM fan-out
// writes disjoint slots, so it is TSan-clean by construction.
#ifndef APQA_CORE_PARALLEL_VERIFY_H_
#define APQA_CORE_PARALLEL_VERIFY_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "abs/abs.h"
#include "abs/batch_verify.h"
#include "core/app_signature.h"
#include "core/thread_pool.h"
#include "core/verify_result.h"

namespace apqa::core {

// RAII guard forcing SigBatch::FirstFailure onto the retained per-signature
// path for the current thread. Used by benches (to keep measuring the
// pre-batching baseline) and by tests comparing the two paths.
class ScopedPerSignatureVerify {
 public:
  ScopedPerSignatureVerify() { ++depth_; }
  ~ScopedPerSignatureVerify() { --depth_; }
  ScopedPerSignatureVerify(const ScopedPerSignatureVerify&) = delete;
  ScopedPerSignatureVerify& operator=(const ScopedPerSignatureVerify&) =
      delete;
  static bool Active() { return depth_ > 0; }

 private:
  static inline thread_local int depth_ = 0;
};

class SigBatch {
 public:
  explicit SigBatch(const abs::VerifyKey& mvk) : mvk_(mvk) {}

  // Queues one ABS check in sequential-verifier order. `policy` and `sig`
  // must outlive FirstFailure (they point into the VO or at a caller-owned
  // super policy); `on_fail` is the exact VerifyResult the sequential
  // verifier would return if this check fails.
  void Add(std::vector<std::uint8_t> msg, const policy::Policy* policy,
           const abs::Signature* sig, VerifyResult on_fail) {
    jobs_.push_back(Job{std::move(msg), policy, sig, std::move(on_fail), {}});
  }

  // Attaches an entry's output action (push its record, its join row, ...)
  // to the last queued job: the job that completes the entry. A verifier
  // calls it once every structural check of the entry has passed, so an
  // entry that fails one mid-way never outputs.
  void OnVerified(std::function<void()> output) {
    jobs_.back().output = std::move(output);
  }

  std::size_t size() const { return jobs_.size(); }

  // Runs the queued checks; returns the lowest failing job index, or -1 if
  // all pass: one whole-VO batch with bisect blame recovery, or one verify
  // per job under ScopedPerSignatureVerify.
  std::ptrdiff_t FirstFailure(ThreadPool* pool) const {
    if (ScopedPerSignatureVerify::Active()) return PerSignatureFirstFailure();
    const std::size_t n = jobs_.size();

    // Accumulate in sequential order until the first structural failure:
    // the sequential verifier never evaluates anything past it, so jobs
    // beyond `s` are irrelevant to blame and emission.
    abs::Rng rng;
    abs::BatchAccumulator acc(mvk_);
    std::size_t s = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!acc.Accumulate(jobs_[i].msg, *jobs_[i].policy, *jobs_[i].sig,
                          &rng)) {
        s = i;
        break;
      }
    }
    if (acc.Check(MakeRunner(pool))) {
      // Everything before the structural failure (or everything, s == n)
      // verifies — whp the lowest failure is the structural one.
      return s == n ? -1 : static_cast<std::ptrdiff_t>(s);
    }
    return Bisect(pool, s);
  }

  const VerifyResult& failure(std::ptrdiff_t i) const {
    return jobs_[static_cast<std::size_t>(i)].on_fail;
  }

  // Runs the output actions of the jobs below `first_failure` (of every
  // job if it is -1), in job order: the entries whose checks all passed,
  // as the sequential verifier would have output them.
  void RunOutputs(std::ptrdiff_t first_failure) const {
    const std::size_t limit = first_failure >= 0
                                  ? static_cast<std::size_t>(first_failure)
                                  : jobs_.size();
    for (std::size_t i = 0; i < limit; ++i) {
      if (jobs_[i].output) jobs_[i].output();
    }
  }

 private:
  struct Job {
    std::vector<std::uint8_t> msg;
    const policy::Policy* policy;
    const abs::Signature* sig;
    VerifyResult on_fail;
    std::function<void()> output;  // set by OnVerified
  };

  static abs::BatchAccumulator::ParallelRunner MakeRunner(ThreadPool* pool) {
    if (pool == nullptr || pool->thread_count() <= 1) return {};
    return [pool](std::size_t n,
                  const std::function<void(std::size_t)>& task) {
      pool->ParallelFor(n, task);
    };
  }

  // Re-batches jobs [lo, hi) with fresh weights; true iff the range passes.
  // Structural validity of every job in the range is already established by
  // the first accumulation pass.
  bool RangePasses(ThreadPool* pool, std::size_t lo, std::size_t hi) const {
    abs::Rng rng;
    abs::BatchAccumulator acc(mvk_);
    for (std::size_t i = lo; i < hi; ++i) {
      acc.Accumulate(jobs_[i].msg, *jobs_[i].policy, *jobs_[i].sig, &rng);
    }
    return acc.Check(MakeRunner(pool));
  }

  // The batch over [0, hi) failed, so the lowest failing index lies in
  // [0, hi). Prefix bisection: checking [lo, mid) either clears it (lowest
  // failure moves to [mid, hi)) or tightens to [lo, mid). log2 n re-batches
  // totalling ~hi extra accumulations — paid only on the failure path.
  std::ptrdiff_t Bisect(ThreadPool* pool, std::size_t hi) const {
    std::size_t lo = 0;
    while (hi - lo > 1) {
      std::size_t mid = lo + (hi - lo) / 2;
      if (RangePasses(pool, lo, mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return static_cast<std::ptrdiff_t>(lo);
  }

  // Retained oracle: one Abs::Verify per job, in order.
  std::ptrdiff_t PerSignatureFirstFailure() const {
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const Job& j = jobs_[i];
      if (!abs::Abs::Verify(mvk_, j.msg, *j.policy, *j.sig)) {
        return static_cast<std::ptrdiff_t>(i);
      }
    }
    return -1;
  }

  const abs::VerifyKey& mvk_;
  std::vector<Job> jobs_;
};

// The user-side verification skeleton shared by every Verify*Vo entry
// (Algorithms 1, 3 and 4 and the §9 / App. E variants):
//   1. the freshness gate: CheckStampFields over every stamp the VO
//      carries, in order, so a replayed VO fails kStaleEpoch before any
//      other work;
//   2. each stamp's attestation is queued as a leading job of `batch`,
//      blamed as AttestationRejected(): it shares the VO's one pairing
//      product, and blame still reaches it before any entry;
//   3. `walk(batch)`: the verifier's own structural rules in sequential-
//      verifier order, queueing each signature check into `batch` and
//      attaching each entry's output action to the job that completes it
//      (SigBatch::OnVerified); it stops at and returns the first structural
//      failure (Ok if none);
//   4. FirstFailure over everything queued;
//   5. the output actions of the jobs below that failure, in job order
//      (SigBatch::RunOutputs) — partial results match the sequential
//      verifier's, and a rejected attestation outputs nothing;
//   6. the lowest signature failure, else the structural verdict.
template <typename Walk>
VerifyResult RunVerify(const VerifyContext& ctx,
                       const std::vector<const EpochStamp*>& stamps,
                       Walk&& walk) {
  for (const EpochStamp* stamp : stamps) {
    if (VerifyResult f = CheckStampFields(*stamp, ctx.expected_epoch);
        !f.ok()) {
      return f;
    }
  }
  const Policy attestation_policy = AttestationPolicy();
  SigBatch batch(ctx.mvk);
  for (const EpochStamp* stamp : stamps) {
    if (!stamp->attested) continue;
    batch.Add(EpochAttestationMessage(stamp->epoch, stamp->ads_digest),
              &attestation_policy, &stamp->attestation, AttestationRejected());
  }
  VerifyResult struct_fail = walk(batch);
  std::ptrdiff_t bad = batch.FirstFailure(ctx.pool);
  batch.RunOutputs(bad);
  if (bad >= 0) return batch.failure(bad);
  return struct_fail;
}

}  // namespace apqa::core

#endif  // APQA_CORE_PARALLEL_VERIFY_H_
