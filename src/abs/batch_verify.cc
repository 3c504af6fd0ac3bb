#include "abs/batch_verify.h"

namespace apqa::abs {

using policy::BuildMsp;
using policy::Msp;

bool BatchAccumulator::Accumulate(const std::vector<std::uint8_t>& msg,
                                  const Policy& predicate,
                                  const Signature& sig, Rng* rng) {
  // Structural checks: component counts and Y != infinity. These failures
  // are deterministic (no algebra involved), so a caller can blame them
  // without running the batch.
  Msp msp = BuildMsp(predicate);
  std::size_t rows = msp.Rows(), cols = msp.Cols();
  if (sig.s.size() != rows || sig.p.size() != cols) return false;
  if (sig.y.IsInfinity()) return false;

  Fr mu = internal::MessageScalar(sig.tau, msg, sig.epoch);

  // Fresh per-signature weights: delta for the W-equation, rho_j for each
  // column equation. Independence across signatures is what makes the grand
  // product a sound random linear combination — see the header comment.
  Fr delta = internal::SmallExponentWeight(rng);
  std::vector<Fr> rho(cols);
  for (auto& r : rho) r = internal::SmallExponentWeight(rng);

  // sum_j rho_j * [column j equation], fold weights kept on the scalar side:
  // each S_i joins its role's bucket with weight c_i, so no G1 scalar
  // multiplication happens here at all.
  for (std::size_t i = 0; i < rows; ++i) {
    Fr ci = Fr::Zero();
    for (std::size_t j = 0; j < cols; ++j) {
      if (msp.m[i][j] == 1) {
        ci = ci + rho[j];
      } else if (msp.m[i][j] == -1) {
        ci = ci - rho[j];
      }
    }
    if (ci.IsZero()) continue;
    auto [it, inserted] = roles_.try_emplace(msp.row_labels[i]);
    RoleBucket& b = it->second;
    if (inserted) b.u = RoleScalar(msp.row_labels[i]);
    b.pts.push_back(sig.s[i]);
    b.weights.push_back(ci);
  }
  // e(Y, h)^{-rho_0} from column 0 and e(Y, h0)^{-delta} from the
  // W-equation share the point -Y: deferred to one multi-set MSM in Check.
  y_pts_.push_back(-sig.y);
  y_rho0_.push_back(rho[0]);
  y_delta_.push_back(delta);
  // delta * e(W, A0) side of the W-equation.
  w_pts_.push_back(sig.w);
  w_delta_.push_back(delta);
  // Message side, deferred: e(-(C g^mu), sum_j rho_j P_j) splits into
  // e(-C, .)^{rho_j} and e(-g, .)^{mu rho_j} terms of two shared G2 MSMs.
  for (std::size_t j = 0; j < cols; ++j) {
    p_pts_.push_back(sig.p[j]);
    p_rho_.push_back(rho[j]);
    p_murho_.push_back(mu * rho[j]);
  }
  ++count_;
  return true;
}

bool BatchAccumulator::Check(const ParallelRunner& runner) {
  const VerifyKey::Precomp& pc = mvk_.precomp();
  auto run = [&](std::size_t n, const std::function<void(std::size_t)>& f) {
    if (runner && n > 1) {
      runner(n, f);
    } else {
      for (std::size_t t = 0; t < n; ++t) f(t);
    }
  };

  // Stage 1, all mutually independent: the W fold, the two multi-set folds,
  // and the reduction of every multi-point role bucket to one point. Each
  // task writes only its own output, so the fan-out is race-free; the
  // runner's join publishes the results.
  std::vector<const RoleBucket*> multi;
  for (const auto& [label, b] : roles_) {
    if (b.pts.size() > 1) multi.push_back(&b);
  }
  std::vector<G1> reduced(multi.size());
  G1 w_fold;
  std::vector<G1> yf;
  std::vector<G2> pf;
  run(3 + multi.size(), [&](std::size_t t) {
    if (t == 0) {
      w_fold = crypto::G1Msm(w_pts_, w_delta_);
    } else if (t == 1) {
      std::vector<Fr> sets[] = {std::move(y_rho0_), std::move(y_delta_)};
      yf = crypto::G1MsmShared(std::span<const G1>(y_pts_),
                               std::span<const std::vector<Fr>>(sets, 2));
    } else if (t == 2) {
      std::vector<Fr> sets[] = {std::move(p_rho_), std::move(p_murho_)};
      pf = crypto::G2MsmShared(std::span<const G2>(p_pts_),
                               std::span<const std::vector<Fr>>(sets, 2));
    } else {
      const RoleBucket& b = *multi[t - 3];
      reduced[t - 3] = crypto::G1Msm(b.pts, b.weights);
    }
  });

  // Stage 2: fold the per-role points onto A and B (header comment).
  std::vector<G1> ab_pts;
  std::vector<Fr> ab_sets[2];
  ab_pts.reserve(roles_.size());
  std::size_t r = 0;
  for (const auto& [label, b] : roles_) {
    if (b.pts.size() > 1) {
      ab_pts.push_back(reduced[r++]);
      ab_sets[0].push_back(Fr::One());
      ab_sets[1].push_back(b.u);
    } else {
      ab_pts.push_back(b.pts[0]);
      ab_sets[0].push_back(b.weights[0]);
      ab_sets[1].push_back(b.u * b.weights[0]);
    }
  }
  std::vector<G1> ab = crypto::G1MsmShared(
      std::span<const G1>(ab_pts), std::span<const std::vector<Fr>>(ab_sets));

  std::vector<crypto::PreparedPair> prepared = {
      {ab[0], &pc.a_prep}, {ab[1], &pc.b_prep}, {w_fold, &pc.a0_prep},
      {yf[0], &pc.h_prep}, {yf[1], &pc.h0_prep}};
  std::vector<std::pair<G1, G2>> fresh = {{-mvk_.c, pf[0]}, {-mvk_.g, pf[1]}};
  pairs_ = 0;
  for (const auto& p : prepared) pairs_ += p.p.IsInfinity() ? 0 : 1;
  for (const auto& [p, q] : fresh) pairs_ += q.IsInfinity() ? 0 : 1;
  return crypto::MultiPairingPrepared(prepared, fresh).IsOne();
}

bool Abs::Verify(const VerifyKey& mvk, const std::vector<std::uint8_t>& msg,
                 const Policy& predicate, const Signature& sig) {
  Rng rng;  // fresh OS-seeded randomness for the batching weights
  BatchAccumulator acc(mvk);
  return acc.Accumulate(msg, predicate, sig, &rng) && acc.Check();
}

}  // namespace apqa::abs
