#include "abs/abs.h"

#include "common/lock_rank.h"
#include "crypto/serde.h"
#include "crypto/sha256.h"

namespace apqa::abs {

using crypto::HashToFr;
using policy::BuildMsp;
using policy::Msp;
using policy::Purge;
using policy::PurgeResult;
using policy::SatisfyingVector;

namespace internal {

Fr MessageScalar(const std::array<std::uint8_t, 32>& tau,
                 const std::vector<std::uint8_t>& msg, std::uint64_t epoch) {
  std::vector<std::uint8_t> buf;
  buf.reserve(tau.size() + msg.size() + 8);
  buf.insert(buf.end(), tau.begin(), tau.end());
  buf.insert(buf.end(), msg.begin(), msg.end());
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<std::uint8_t>(epoch >> (8 * i)));
  }
  return HashToFr(buf.data(), buf.size());
}

G1 MessageBase(const VerifyKey& mvk, const Fr& mu) {
  return mvk.c + mvk.precomp().g_tab.Mul(mu);
}

Fr SmallExponentWeight(Rng* rng) {
  crypto::Limbs<4> l{};
  do {
    l[0] = rng->NextU64();
    l[1] = rng->NextU64();
  } while (l[0] == 0 && l[1] == 0);
  return Fr::FromCanonical(l);
}

}  // namespace internal

namespace {

using internal::MessageBase;
using internal::MessageScalar;

// Queues a table-backed constant-pattern multiply, with a fallback for keys
// assembled by hand (tests, deserialization paths) whose tables were never
// built. The scalar is a blinding secret, so both paths are
// constant-pattern ladders.
std::size_t AddByTable(crypto::CtMulBatch* batch,
                       const crypto::FixedBaseTable<crypto::Fp>& tab,
                       const G1& base, const SecretFr& k) {
  return tab.Initialized() ? batch->Add(tab, k) : batch->Add(base, k);
}

}  // namespace

Fr RoleScalar(const std::string& role) {
  std::string tagged = "apqa-role:" + role;
  return HashToFr(tagged);
}

const VerifyKey::Precomp& VerifyKey::precomp() const {
  // Rank kSigningBuild: lazy table builds happen under the server's
  // kServerSp lock on the first query, so this must outrank it.
  static common::RankedMutex<common::LockRank::kSigningBuild> build_mu;
  std::lock_guard lock(build_mu);
  if (!precomp_) {
    auto pc = std::make_shared<Precomp>();
    pc->g_tab = crypto::FixedBaseTable<crypto::Fp>(g);
    pc->c_tab = crypto::FixedBaseTable<crypto::Fp>(c);
    pc->a_tab = crypto::FixedBaseTable<crypto::Fp2>(a);
    pc->b_tab = crypto::FixedBaseTable<crypto::Fp2>(b);
    pc->h0_prep = crypto::G2Prepared(h0);
    pc->h_prep = crypto::G2Prepared(h);
    pc->a0_prep = crypto::G2Prepared(a0);
    pc->a_prep = crypto::G2Prepared(a);
    pc->b_prep = crypto::G2Prepared(b);
    precomp_ = std::move(pc);
  }
  return *precomp_;
}

void VerifyKey::Serialize(common::ByteWriter* w) const {
  crypto::WriteG1(w, g);
  crypto::WriteG1(w, c);
  crypto::WriteG2(w, h0);
  crypto::WriteG2(w, h);
  crypto::WriteG2(w, a0);
  crypto::WriteG2(w, a);
  crypto::WriteG2(w, b);
}

VerifyKey VerifyKey::Deserialize(common::ByteReader* r) {
  VerifyKey k;
  k.g = crypto::ReadG1(r);
  k.c = crypto::ReadG1(r);
  k.h0 = crypto::ReadG2(r);
  k.h = crypto::ReadG2(r);
  k.a0 = crypto::ReadG2(r);
  k.a = crypto::ReadG2(r);
  k.b = crypto::ReadG2(r);
  return k;
}

bool SigningKey::Covers(const RoleSet& roles) const {
  for (const auto& r : roles) {
    if (k_attr.find(r) == k_attr.end()) return false;
  }
  return true;
}

void Signature::Serialize(common::ByteWriter* w_) const {
  // Normalize every point of both groups with one shared inversion
  // (BatchToAffine skips infinity); WriteG1/WriteG2 then find Z = 1 and
  // write the coordinates as they are. Same bytes as writing each point on
  // its own.
  std::vector<G1> g1s;
  g1s.reserve(s.size() + 2);
  g1s.push_back(y);
  g1s.push_back(w);
  g1s.insert(g1s.end(), s.begin(), s.end());
  std::vector<G2> g2s = p;
  crypto::BatchToAffine(std::span<G1>(g1s), std::span<G2>(g2s));

  w_->PutBytes(tau.data(), tau.size());
  w_->PutU64(epoch);
  crypto::WriteG1(w_, g1s[0]);
  crypto::WriteG1(w_, g1s[1]);
  w_->PutList(std::span<const G1>(g1s).subspan(2),
              [w_](const G1& e) { crypto::WriteG1(w_, e); });
  w_->PutList(g2s, [w_](const G2& e) { crypto::WriteG2(w_, e); });
}

Signature Signature::Deserialize(common::ByteReader* r) {
  Signature sig;
  r->Get(sig.tau.data(), sig.tau.size());
  sig.epoch = r->GetU64();
  sig.y = crypto::ReadG1(r);
  sig.w = crypto::ReadG1(r);
  // A group element takes at least one byte on the wire.
  r->GetList(&sig.s, 1, [r] { return crypto::ReadG1(r); });
  r->GetList(&sig.p, 1, [r] { return crypto::ReadG2(r); });
  return sig;
}

std::size_t Signature::SerializedSize() const {
  // Mirrors Serialize without normalizing a single point.
  auto g1 = [](const G1& e) { return e.IsInfinity() ? 1 : crypto::kG1Bytes; };
  auto g2 = [](const G2& e) { return e.IsInfinity() ? 1 : crypto::kG2Bytes; };
  std::size_t n = tau.size() + 8 + g1(y) + g1(w) + 4 + 4;
  for (const G1& e : s) n += g1(e);
  for (const G2& e : p) n += g2(e);
  return n;
}

void Abs::Setup(Rng* rng, MasterKey* msk, VerifyKey* mvk) {
  // The ephemeral discrete logs of g/c/h0/h are never stored, but knowing
  // one would break soundness, so they take the constant-pattern generator
  // path too.
  msk->a0 = rng->NextNonZeroSecretFr();
  msk->a = rng->NextNonZeroSecretFr();
  msk->b = rng->NextNonZeroSecretFr();
  mvk->g = crypto::CtG1Mul(rng->NextNonZeroSecretFr());
  mvk->c = crypto::CtG1Mul(rng->NextNonZeroSecretFr());
  mvk->h0 = crypto::CtG2Mul(rng->NextNonZeroSecretFr());
  mvk->h = crypto::CtG2Mul(rng->NextNonZeroSecretFr());
  mvk->a0 = crypto::CtScalarMul(mvk->h0, msk->a0);
  mvk->a = crypto::CtScalarMul(mvk->h, msk->a);
  mvk->b = crypto::CtScalarMul(mvk->h, msk->b);
  mvk->precomp();  // warm the fixed-base tables while setup owns the key
}

SigningKey Abs::KeyGen(const MasterKey& msk, const RoleSet& attrs, Rng* rng) {
  SigningKey sk;
  sk.k_base = crypto::CtG1Mul(rng->NextNonZeroSecretFr());
  sk.k_base_tab = crypto::FixedBaseTable<crypto::Fp>(sk.k_base);
  sk.k0 = sk.k_base_tab.MulCt(crypto::CtInverse(msk.a0));
  sk.k0_tab = crypto::FixedBaseTable<crypto::Fp>(sk.k0);
  for (const auto& role : attrs) {
    Fr u = RoleScalar(role);
    SecretFr exp = crypto::CtInverse(msk.a + msk.b * u);
    sk.k_attr[role] = sk.k_base_tab.MulCt(exp);
  }
  return sk;
}

std::optional<Signature> Abs::Sign(const VerifyKey& mvk, const SigningKey& sk,
                                   const std::vector<std::uint8_t>& msg,
                                   const Policy& predicate, Rng* rng,
                                   std::uint64_t epoch) {
  Signature out;
  SignBatch batch([&out](std::size_t) -> Signature& { return out; });
  if (!batch.Sign(mvk, sk, msg, predicate, rng, epoch)) return std::nullopt;
  batch.Run();
  return out;
}

std::optional<Signature> Abs::Relax(const VerifyKey& mvk, const Signature& sig,
                                    const Policy& predicate,
                                    const std::vector<std::uint8_t>& msg,
                                    const RoleSet& relax_to, Rng* rng) {
  Signature out;
  SignBatch batch([&out](std::size_t) -> Signature& { return out; });
  if (!batch.Relax(mvk, sig, predicate, msg, relax_to, rng)) {
    return std::nullopt;
  }
  batch.Run();
  return out;
}

bool SignBatch::Sign(const VerifyKey& mvk, const SigningKey& sk,
                     const std::vector<std::uint8_t>& msg,
                     const Policy& predicate, Rng* rng, std::uint64_t epoch) {
  Msp msp = BuildMsp(predicate);
  RoleSet owned;
  for (const auto& [role, key] : sk.k_attr) owned.insert(role);
  auto v = SatisfyingVector(predicate, owned);
  if (!v.has_value()) return false;

  Signature shell;
  rng->Fill(shell.tau.data(), shell.tau.size());
  shell.epoch = epoch;
  Fr mu = MessageScalar(shell.tau, msg, shell.epoch);
  const VerifyKey::Precomp& pc = mvk.precomp();

  SecretFr r0 = rng->NextNonZeroSecretFr();
  End1(AddByTable(&mul_, sk.k_base_tab, sk.k_base, r0));  // Y
  End1(AddByTable(&mul_, sk.k0_tab, sk.k0, r0));          // W

  std::size_t rows = msp.Rows(), cols = msp.Cols();
  std::vector<SecretFr> ri(rows);
  for (auto& r : ri) r = rng->NextNonZeroSecretFr();

  // P_j = prod_i (A B^{u_i})^{M_ij r_i} = A^{alpha_j} B^{beta_j} with
  // alpha_j = sum_i M_ij r_i and beta_j = sum_i M_ij u_i r_i: the per-row
  // G2 terms are folded into secret scalars first, so the G2 fixed-base
  // multiplies run once per column instead of once per row. Same group
  // elements as summing the rows' (A B^{u_i})^{r_i}.
  std::vector<SecretFr> alpha(cols, SecretFr(Fr::Zero()));
  std::vector<SecretFr> beta(cols, SecretFr(Fr::Zero()));
  for (std::size_t i = 0; i < rows; ++i) {
    // S_i = (C g^mu)^{r_i}, split over the fixed-base tables of the key
    // components, times K_u^{r_0} for a row in the satisfying vector;
    // blinding scalars stay on the constant-pattern ladder throughout. The
    // (*v)[i] branch itself is quarantined: it reveals which owned
    // attributes satisfy the predicate (an attribute-usage pattern), not
    // key material — see DESIGN.md.
    mul_.Add(pc.c_tab, ri[i]);
    std::size_t last = mul_.Add(pc.g_tab, mu * ri[i]);
    if ((*v)[i] != 0) last = mul_.Add(sk.k_attr.at(msp.row_labels[i]), r0);
    End1(last);
    SecretFr uri = RoleScalar(msp.row_labels[i]) * ri[i];
    for (std::size_t j = 0; j < cols; ++j) {
      if (msp.m[i][j] == 1) {
        alpha[j] = alpha[j] + ri[i];
        beta[j] = beta[j] + uri;
      } else if (msp.m[i][j] == -1) {
        alpha[j] = alpha[j] - ri[i];
        beta[j] = beta[j] - uri;
      }
    }
  }
  for (std::size_t j = 0; j < cols; ++j) {
    mul_.Add(pc.a_tab, alpha[j]);
    End2(mul_.Add(pc.b_tab, beta[j]));
  }
  shell.s.resize(rows);
  shell.p.resize(cols);
  Queue(std::move(shell));
  return true;
}

bool SignBatch::Relax(const VerifyKey& mvk, const Signature& sig,
                      const Policy& predicate,
                      const std::vector<std::uint8_t>& msg,
                      const RoleSet& relax_to, Rng* rng) {
  Msp msp = BuildMsp(predicate);
  if (sig.s.size() != msp.Rows() || sig.p.size() != msp.Cols()) return false;
  // Step 1: purge attributes absent from relax_to.
  PurgeResult purge = Purge(predicate, relax_to);
  if (!purge.ok) return false;

  Fr mu = MessageScalar(sig.tau, msg, sig.epoch);
  const VerifyKey::Precomp& pc = mvk.precomp();

  G2 p_kept = G2::Infinity();
  for (std::size_t j : purge.kept_cols) p_kept = p_kept + sig.p[j];

  // Step 2 (merge duplicates) + Step 3 (append missing attributes). The new
  // predicate ∨_{a∈relax_to} a has one row per role, ordered like RoleSet
  // (lexicographically) — the same order BuildMsp produces for
  // Policy::OrOfRoles(relax_to). A role with no kept row is "fresh": its
  // row is a new (C g^mu)^{r_i} and (A B^{u_i})^{r_i} joins P. The fresh
  // r_i are drawn in role order, before rho.
  struct Row {
    G1 merged = G1::Infinity();
    bool fresh = true;
    SecretFr r;  // fresh rows only
    Fr u;        // fresh rows only
  };
  std::vector<Row> rows;
  rows.reserve(relax_to.size());
  for (const auto& role : relax_to) {
    Row& row = rows.emplace_back();
    for (std::size_t k : purge.kept_rows) {
      if (msp.row_labels[k] == role) {
        row.merged = row.merged + sig.s[k];
        row.fresh = false;
      }
    }
    if (row.fresh) {
      row.r = rng->NextNonZeroSecretFr();
      row.u = RoleScalar(role);
    }
  }

  // Step 4: re-randomize by rho so the output is distributed like a fresh
  // signature on the relaxed predicate. Leaking rho would link the APS
  // signature back to the APP original, so every multiply stays on a
  // constant-pattern ladder. Fresh rows fold rho into their blinding
  // scalar instead of being built and then re-randomized:
  //   rho * (C g^mu)^{r_i}           = C^{rho r_i} g^{mu rho r_i}
  //   rho * sum_i (A B^{u_i})^{r_i}  = A^{sum rho r_i} B^{sum u_i rho r_i}
  // — the same group elements, on the fixed-base tables, with the fresh G2
  // terms collapsed into one pair of multiplies per relaxation.
  SecretFr rho = rng->NextNonZeroSecretFr();
  Signature shell;
  shell.tau = sig.tau;
  shell.epoch = sig.epoch;
  End1(mul_.Add(sig.y, rho));
  End1(mul_.Add(sig.w, rho));
  SecretFr fresh_r(Fr::Zero()), fresh_ur(Fr::Zero());
  bool any_fresh = false;
  for (const Row& row : rows) {
    if (row.fresh) {
      SecretFr rr = rho * row.r;
      mul_.Add(pc.c_tab, rr);
      End1(mul_.Add(pc.g_tab, mu * rr));
      fresh_r = fresh_r + rr;
      fresh_ur = fresh_ur + row.u * rr;
      any_fresh = true;
    } else {
      End1(mul_.Add(row.merged, rho));
    }
  }
  std::size_t last = mul_.Add(p_kept, rho);
  if (any_fresh) {
    mul_.Add(pc.a_tab, fresh_r);
    last = mul_.Add(pc.b_tab, fresh_ur);
  }
  End2(last);
  shell.s.resize(rows.size());
  shell.p.resize(1);
  Queue(std::move(shell));
  return true;
}

void SignBatch::Queue(Signature shell) {
  pending_.push_back(std::move(shell));
  if (pending_.size() == kRunEvery) Run();
}

void SignBatch::Run() {
  mul_.Run(parallel_for_);
  // The components were queued in signature order, each one's jobs in a
  // row, so one cursor per group walks them.
  std::size_t j1 = 0, j2 = 0, e1 = 0, e2 = 0;
  auto next1 = [&] {
    G1 sum = G1::Infinity();
    while (j1 < g1_ends_[e1]) sum = sum + mul_.g1(j1++);
    ++e1;
    return sum;
  };
  auto next2 = [&] {
    G2 sum = G2::Infinity();
    while (j2 < g2_ends_[e2]) sum = sum + mul_.g2(j2++);
    ++e2;
    return sum;
  };
  for (Signature& sig : pending_) {
    sig.y = next1();
    sig.w = next1();
    for (G1& s : sig.s) s = next1();
    for (G2& p : sig.p) p = next2();
    slot_(ran_++) = std::move(sig);
  }
  pending_.clear();
  mul_ = crypto::CtMulBatch();
  g1_ends_.clear();
  g2_ends_.clear();
}

}  // namespace apqa::abs
