// Tests for the ABS scheme with predicate relaxation (§5.2).
#include <gtest/gtest.h>

#include <algorithm>

#include "abs/abs.h"
#include "abs/batch_verify.h"
#include "core/app_signature.h"
#include "core/grid_tree.h"
#include "core/hierarchy.h"
#include "crypto/ct.h"
#include "crypto/serde.h"
#include "policy/msp.h"
#include "reference/abs_unprepared.h"

namespace apqa::abs {
namespace {

using crypto::Rng;

std::vector<std::uint8_t> Msg(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

class AbsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(2024);
    Abs::Setup(rng_.get(), &msk_, &mvk_);
    universe_ = {"Role0", "RoleA", "RoleB", "RoleC", "RoleD"};
    sk_all_ = Abs::KeyGen(msk_, universe_, rng_.get());
  }

  std::unique_ptr<Rng> rng_;
  MasterKey msk_;
  VerifyKey mvk_;
  RoleSet universe_;
  SigningKey sk_all_;
};

TEST_F(AbsTest, SignVerifyRoundTrip) {
  Policy pred = Policy::Parse("(RoleA & RoleB) | RoleC");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("hello"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(Abs::Verify(mvk_, Msg("hello"), pred, *sig));
  EXPECT_TRUE(
      VerifyUnprepared(mvk_, Msg("hello"), pred, *sig, /*exact=*/true));
}

TEST_F(AbsTest, VerifyRejectsWrongMessage) {
  Policy pred = Policy::Parse("RoleA & RoleB");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("hello"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  EXPECT_FALSE(Abs::Verify(mvk_, Msg("hellO"), pred, *sig));
  EXPECT_FALSE(Abs::Verify(mvk_, Msg(""), pred, *sig));
}

TEST_F(AbsTest, VerifyRejectsWrongPredicate) {
  Policy pred = Policy::Parse("RoleA & RoleB");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  // Same shape, different role.
  EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), Policy::Parse("RoleA & RoleC"), *sig));
}

TEST_F(AbsTest, VerifyRejectsTamperedSignature) {
  Policy pred = Policy::Parse("(RoleA & RoleB) | RoleC");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  Signature bad = *sig;
  bad.y = bad.y + crypto::G1Generator();
  EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), pred, bad));
  bad = *sig;
  bad.s[0] = bad.s[0].Double();
  EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), pred, bad));
  bad = *sig;
  bad.p[0] = bad.p[0] + crypto::G2Generator();
  EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), pred, bad));
  bad = *sig;
  bad.tau[0] ^= 1;
  EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), pred, bad));
}

TEST_F(AbsTest, SignFailsWithoutSatisfyingAttributes) {
  SigningKey sk_c = Abs::KeyGen(msk_, {"RoleC"}, rng_.get());
  Policy pred = Policy::Parse("RoleA & RoleB");
  EXPECT_FALSE(Abs::Sign(mvk_, sk_c, Msg("m"), pred, rng_.get()).has_value());
  // But a predicate it satisfies works, even mentioning foreign roles.
  Policy pred2 = Policy::Parse("(RoleA & RoleB) | RoleC");
  auto sig = Abs::Sign(mvk_, sk_c, Msg("m"), pred2, rng_.get());
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(Abs::Verify(mvk_, Msg("m"), pred2, *sig));
}

TEST_F(AbsTest, RelaxProducesVerifiableSignature) {
  // Predicate RoleA & RoleB; user owns only RoleC, so the super policy is
  // the OR of everything they lack.
  Policy pred = Policy::Parse("RoleA & RoleB");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  RoleSet lacks = {"Role0", "RoleA", "RoleB", "RoleD"};  // universe \ {RoleC}
  auto relaxed = Abs::Relax(mvk_, *sig, pred, Msg("m"), lacks, rng_.get());
  ASSERT_TRUE(relaxed.has_value());
  Policy super = Policy::OrOfRoles(lacks);
  EXPECT_TRUE(Abs::Verify(mvk_, Msg("m"), super, *relaxed));
  EXPECT_TRUE(
      VerifyUnprepared(mvk_, Msg("m"), super, *relaxed, /*exact=*/true));
  // The relaxed signature does not verify under the original predicate.
  EXPECT_FALSE(Abs::Verify(mvk_, Msg("m"), pred, *relaxed));
}

TEST_F(AbsTest, RelaxFailsWhenUserCouldAccess) {
  // Paper's running example: predicate RoleA & RoleB cannot be relaxed to
  // Role0 | RoleC because {RoleA, RoleB} avoids that set and still satisfies.
  Policy pred = Policy::Parse("RoleA & RoleB");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  EXPECT_FALSE(
      Abs::Relax(mvk_, *sig, pred, Msg("m"), {"Role0", "RoleC"}, rng_.get())
          .has_value());
}

TEST_F(AbsTest, RelaxedSignatureBindsMessage) {
  Policy pred = Policy::Parse("RoleA & RoleB");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  RoleSet lacks = {"Role0", "RoleA", "RoleB", "RoleD"};
  auto relaxed = Abs::Relax(mvk_, *sig, pred, Msg("m"), lacks, rng_.get());
  ASSERT_TRUE(relaxed.has_value());
  Policy super = Policy::OrOfRoles(lacks);
  EXPECT_FALSE(Abs::Verify(mvk_, Msg("x"), super, *relaxed));
}

TEST_F(AbsTest, RelaxHandlesDuplicateAttributesInPredicate) {
  // RoleA appears in two clauses; purge keeps multiple rows with the same
  // label which must be merged (Algorithm 2, step 2).
  Policy pred = Policy::Parse("(RoleA & RoleB) | (RoleA & RoleC)");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  // User owns RoleD only: lacks everything else.
  RoleSet lacks = {"Role0", "RoleA", "RoleB", "RoleC"};
  auto relaxed = Abs::Relax(mvk_, *sig, pred, Msg("m"), lacks, rng_.get());
  ASSERT_TRUE(relaxed.has_value());
  EXPECT_TRUE(Abs::Verify(mvk_, Msg("m"), Policy::OrOfRoles(lacks), *relaxed));
}

TEST_F(AbsTest, RelaxOnComplexPredicates) {
  Rng rng(31337);
  Policy pred = Policy::Parse("(RoleA & (RoleB | RoleC)) | (RoleC & RoleD)");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, &rng);
  ASSERT_TRUE(sig.has_value());
  // User owns {RoleB}: complement {Role0, RoleA, RoleC, RoleD}; the
  // predicate is not satisfiable by {RoleB} alone, so relaxation succeeds.
  RoleSet lacks = {"Role0", "RoleA", "RoleC", "RoleD"};
  auto relaxed = Abs::Relax(mvk_, *sig, pred, Msg("m"), lacks, &rng);
  ASSERT_TRUE(relaxed.has_value());
  EXPECT_TRUE(Abs::Verify(mvk_, Msg("m"), Policy::OrOfRoles(lacks), *relaxed));
  // User owns {RoleA, RoleB}: predicate satisfied, relaxation must fail.
  RoleSet lacks2 = {"Role0", "RoleC", "RoleD"};
  EXPECT_FALSE(Abs::Relax(mvk_, *sig, pred, Msg("m"), lacks2, &rng).has_value());
}

TEST_F(AbsTest, SignatureSerializationRoundTrip) {
  Policy pred = Policy::Parse("(RoleA & RoleB) | RoleC");
  auto sig = Abs::Sign(mvk_, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  common::ByteWriter w;
  sig->Serialize(&w);
  EXPECT_EQ(w.size(), sig->SerializedSize());
  common::ByteReader r(w.data());
  Signature back = Signature::Deserialize(&r);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(Abs::Verify(mvk_, Msg("m"), pred, back));
}

TEST_F(AbsTest, VerifyKeySerializationRoundTrip) {
  common::ByteWriter w;
  mvk_.Serialize(&w);
  common::ByteReader r(w.data());
  VerifyKey back = VerifyKey::Deserialize(&r);
  EXPECT_TRUE(r.AtEnd());
  Policy pred = Policy::Parse("RoleA");
  auto sig = Abs::Sign(back, sk_all_, Msg("m"), pred, rng_.get());
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(Abs::Verify(back, Msg("m"), pred, *sig));
}

TEST_F(AbsTest, SignatureSizeGrowsWithPredicateLength) {
  auto s1 = Abs::Sign(mvk_, sk_all_, Msg("m"), Policy::Parse("RoleA"), rng_.get());
  auto s4 = Abs::Sign(mvk_, sk_all_, Msg("m"),
                      Policy::Parse("(RoleA & RoleB) | (RoleC & RoleD)"),
                      rng_.get());
  ASSERT_TRUE(s1.has_value() && s4.has_value());
  EXPECT_LT(s1->SerializedSize(), s4->SerializedSize());
}

TEST_F(AbsTest, KeyGenCovers) {
  SigningKey sk = Abs::KeyGen(msk_, {"RoleA", "RoleB"}, rng_.get());
  EXPECT_TRUE(sk.Covers({"RoleA"}));
  EXPECT_TRUE(sk.Covers({"RoleA", "RoleB"}));
  EXPECT_FALSE(sk.Covers({"RoleC"}));
}

// --- Abs::Verify (a batch of one) vs the column-by-column reference ---

// Abs::Verify runs one BatchAccumulator over a single signature; the
// reference VerifyUnprepared(..., exact=true) checks the W-equation and
// every span-program column on its own. The two must agree on a valid
// signature and on every tampered variant, over the 1-row attestation
// shape, a DNF whose span program has -1 entries, and a predicate with a
// duplicated role label.
TEST_F(AbsTest, VerifyAgreesWithColumnByColumnReference) {
  SigningKey sk = Abs::KeyGen(msk_, {core::kPseudoRole, "RoleA", "RoleB",
                                     "RoleC", "RoleD"},
                              rng_.get());
  const Policy dnf = Policy::Parse(
      "(RoleA & RoleB & RoleC) | (RoleB & RoleD) | (RoleA & RoleC & RoleD)");
  const policy::Msp dnf_msp = policy::BuildMsp(dnf);
  ASSERT_TRUE(std::any_of(dnf_msp.m.begin(), dnf_msp.m.end(), [](auto& row) {
    return std::find(row.begin(), row.end(), -1) != row.end();
  }));
  struct Case {
    const char* name;
    Policy predicate;
  };
  const std::vector<Case> cases = {
      {"attestation", core::AttestationPolicy()},
      {"dnf_negative_entries", dnf},
      {"duplicate_labels", Policy::Parse("(RoleA & RoleB) | (RoleA & RoleC)")},
  };
  const G1 g1 = crypto::G1Generator();
  const G2 g2 = crypto::G2Generator();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto msg = Msg(c.name);
    auto sig = Abs::Sign(mvk_, sk, msg, c.predicate, rng_.get());
    ASSERT_TRUE(sig.has_value());
    const policy::Msp msp = policy::BuildMsp(c.predicate);

    std::vector<std::pair<std::string, Signature>> variants;
    auto add = [&](std::string name, auto&& tamper) {
      Signature v = *sig;
      tamper(v);
      variants.emplace_back(std::move(name), std::move(v));
    };
    add("w", [&](Signature& v) { v.w = v.w + g1; });
    add("y", [&](Signature& v) { v.y = v.y + g1; });
    add("y_infinity", [&](Signature& v) { v.y = G1::Infinity(); });
    for (std::size_t i = 0; i < sig->s.size(); ++i) {
      add("s" + std::to_string(i), [&](Signature& v) { v.s[i] = v.s[i] + g1; });
    }
    for (std::size_t j = 0; j < sig->p.size(); ++j) {
      add("p" + std::to_string(j), [&](Signature& v) { v.p[j] = v.p[j] + g2; });
    }
    add("extra_s", [&](Signature& v) { v.s.push_back(g1); });
    add("missing_s", [&](Signature& v) { v.s.pop_back(); });
    add("extra_p", [&](Signature& v) { v.p.push_back(g2); });
    add("missing_p", [&](Signature& v) { v.p.pop_back(); });
    for (std::size_t i = 1; i < msp.Rows(); ++i) {
      if (msp.row_labels[i] != msp.row_labels[0]) {
        add("rows_swapped", [&](Signature& v) { std::swap(v.s[0], v.s[i]); });
        break;
      }
    }

    EXPECT_TRUE(Abs::Verify(mvk_, msg, c.predicate, *sig));
    EXPECT_TRUE(VerifyUnprepared(mvk_, msg, c.predicate, *sig, true));
    EXPECT_FALSE(Abs::Verify(mvk_, Msg("other"), c.predicate, *sig));
    EXPECT_FALSE(
        VerifyUnprepared(mvk_, Msg("other"), c.predicate, *sig, true));
    for (const auto& [name, v] : variants) {
      SCOPED_TRACE(name);
      EXPECT_FALSE(VerifyUnprepared(mvk_, msg, c.predicate, v, true));
      EXPECT_FALSE(Abs::Verify(mvk_, msg, c.predicate, v));
    }
    EXPECT_EQ(variants.back().first == "rows_swapped", msp.Rows() > 1);
  }
}

// --- Whole-VO batched verification (abs/batch_verify.h) ---

TEST_F(AbsTest, BatchAcceptsValidSignatures) {
  std::vector<Policy> preds = {
      Policy::Parse("RoleA"),
      Policy::Parse("RoleA & RoleB"),
      Policy::Parse("(RoleA & RoleB) | RoleC"),
  };
  BatchAccumulator acc(mvk_);
  std::vector<std::pair<std::vector<std::uint8_t>, Signature>> sigs;
  for (std::size_t k = 0; k < 9; ++k) {
    auto msg = Msg("m" + std::to_string(k));
    auto sig = Abs::Sign(mvk_, sk_all_, msg, preds[k % preds.size()],
                         rng_.get());
    ASSERT_TRUE(sig.has_value());
    ASSERT_TRUE(acc.Accumulate(msg, preds[k % preds.size()], *sig,
                               rng_.get()));
  }
  EXPECT_EQ(acc.Size(), 9u);
  EXPECT_TRUE(acc.Check());
}

TEST_F(AbsTest, BatchRejectsOneTamperedSignature) {
  Policy pred = Policy::Parse("RoleA & RoleB");
  for (int tampered = 0; tampered < 3; ++tampered) {
    BatchAccumulator acc(mvk_);
    for (int k = 0; k < 3; ++k) {
      auto msg = Msg("m" + std::to_string(k));
      auto sig = Abs::Sign(mvk_, sk_all_, msg, pred, rng_.get());
      ASSERT_TRUE(sig.has_value());
      if (k == tampered) sig->s[0] = sig->s[0].Double();
      ASSERT_TRUE(acc.Accumulate(msg, pred, *sig, rng_.get()));
    }
    EXPECT_FALSE(acc.Check()) << "tampered index " << tampered;
  }
}

TEST_F(AbsTest, BatchStructuralFailureLeavesBatchUntouched) {
  Policy pred = Policy::Parse("RoleA");
  auto good = Abs::Sign(mvk_, sk_all_, Msg("ok"), pred, rng_.get());
  ASSERT_TRUE(good.has_value());
  BatchAccumulator acc(mvk_);
  ASSERT_TRUE(acc.Accumulate(Msg("ok"), pred, *good, rng_.get()));

  Signature wrong_shape = *good;
  wrong_shape.s.push_back(crypto::G1Generator());
  EXPECT_FALSE(acc.Accumulate(Msg("ok"), pred, wrong_shape, rng_.get()));
  Signature y_inf = *good;
  y_inf.y = G1::Infinity();
  EXPECT_FALSE(acc.Accumulate(Msg("ok"), pred, y_inf, rng_.get()));

  // The rejected signatures contributed nothing: the batch still passes.
  EXPECT_EQ(acc.Size(), 1u);
  EXPECT_TRUE(acc.Check());
}

// Adversarial pair cancellation: two individually invalid signatures whose
// errors are equal and opposite group elements. If the batch reused one
// fixed weight across signatures, the errors would cancel inside the shared
// per-base MSMs and the forged pair would slip through. Fresh per-verify
// 128-bit weights make the combined error delta_1*T - delta_2*T vanish only
// when delta_1 == delta_2 (probability 2^-128), so every trial must reject.
TEST_F(AbsTest, BatchRejectsForgedPairCancellation) {
  Policy pred = Policy::Parse("RoleA & RoleB");
  auto s1 = Abs::Sign(mvk_, sk_all_, Msg("p1"), pred, rng_.get());
  auto s2 = Abs::Sign(mvk_, sk_all_, Msg("p2"), pred, rng_.get());
  ASSERT_TRUE(s1.has_value() && s2.has_value());
  G1 t = crypto::G1Generator().ScalarMul(Fr::FromU64(0xD00DFEED));

  for (int trial = 0; trial < 4; ++trial) {
    // W-equation cancellation: W1 += T, W2 -= T hits the shared a0 bucket.
    Signature bad1 = *s1, bad2 = *s2;
    bad1.w = bad1.w + t;
    bad2.w = bad2.w + (-t);
    ASSERT_FALSE(Abs::Verify(mvk_, Msg("p1"), pred, bad1));
    ASSERT_FALSE(Abs::Verify(mvk_, Msg("p2"), pred, bad2));
    BatchAccumulator acc(mvk_);
    ASSERT_TRUE(acc.Accumulate(Msg("p1"), pred, bad1, rng_.get()));
    ASSERT_TRUE(acc.Accumulate(Msg("p2"), pred, bad2, rng_.get()));
    EXPECT_FALSE(acc.Check()) << "W cancellation survived, trial " << trial;

    // Y-side cancellation: hits the shared h and h0 folds instead.
    bad1 = *s1;
    bad2 = *s2;
    bad1.y = bad1.y + t;
    bad2.y = bad2.y + (-t);
    ASSERT_FALSE(Abs::Verify(mvk_, Msg("p1"), pred, bad1));
    ASSERT_FALSE(Abs::Verify(mvk_, Msg("p2"), pred, bad2));
    BatchAccumulator acc2(mvk_);
    ASSERT_TRUE(acc2.Accumulate(Msg("p1"), pred, bad1, rng_.get()));
    ASSERT_TRUE(acc2.Accumulate(Msg("p2"), pred, bad2, rng_.get()));
    EXPECT_FALSE(acc2.Check()) << "Y cancellation survived, trial " << trial;
  }
}

// The batch folds every row base A + u*B onto A and B by bilinearity, so
// it must keep each row bound to its role. An APS's super-policy is an OR of
// roles: its span program has one column, so every row carries the same
// fold weight rho_0 and sum c_i*S_i cannot tell the rows apart. Only the
// role scalar u does. Each case runs as a one-signature batch (single-point
// role buckets) and next to a valid APS over the same roles (multi-point
// buckets, reduced by an MSM before the fold).
class AbsApsFoldTest : public AbsTest {
 protected:
  void SetUp() override {
    AbsTest::SetUp();
    Policy pred = Policy::Parse("RoleA & RoleB");
    for (const char* m : {"m1", "m2"}) {
      auto sig = Abs::Sign(mvk_, sk_all_, Msg(m), pred, rng_.get());
      ASSERT_TRUE(sig.has_value());
      auto aps = Abs::Relax(mvk_, *sig, pred, Msg(m), lacks_, rng_.get());
      ASSERT_TRUE(aps.has_value());
      aps_.push_back(std::move(*aps));
    }
    ASSERT_EQ(aps_[0].s.size(), lacks_.size());
  }

  // True iff the batch accepts `bad` (on message m1), alone or after the
  // valid APS on m2.
  bool BatchAccepts(const Signature& bad, bool with_valid) {
    BatchAccumulator acc(mvk_);
    if (with_valid) {
      EXPECT_TRUE(acc.Accumulate(Msg("m2"), super_, aps_[1], rng_.get()));
    }
    EXPECT_TRUE(acc.Accumulate(Msg("m1"), super_, bad, rng_.get()));
    return acc.Check();
  }

  RoleSet lacks_ = {"Role0", "RoleA", "RoleB", "RoleD"};
  Policy super_ = Policy::OrOfRoles(lacks_);
  std::vector<Signature> aps_;
};

TEST_F(AbsApsFoldTest, ValidApsPasses) {
  EXPECT_TRUE(BatchAccepts(aps_[0], false));
  EXPECT_TRUE(BatchAccepts(aps_[0], true));
}

TEST_F(AbsApsFoldTest, RowsOfDifferentRolesSwappedAreRejected) {
  policy::Msp msp = policy::BuildMsp(super_);
  ASSERT_NE(msp.row_labels[0], msp.row_labels[1]);
  Signature swapped = aps_[0];
  std::swap(swapped.s[0], swapped.s[1]);
  ASSERT_FALSE(Abs::Verify(mvk_, Msg("m1"), super_, swapped));
  EXPECT_FALSE(BatchAccepts(swapped, false));
  EXPECT_FALSE(BatchAccepts(swapped, true));
}

TEST_F(AbsApsFoldTest, PerturbationKeepingRowSumIsRejected) {
  // S_0 + T and S_1 - T: sum S_i is unchanged, sum u_i*S_i moves by
  // (u_0 - u_1)*T.
  G1 t = crypto::G1Generator().ScalarMul(Fr::FromU64(0xC0FFEE));
  Signature bent = aps_[0];
  bent.s[0] = bent.s[0] + t;
  bent.s[1] = bent.s[1] + (-t);
  ASSERT_FALSE(Abs::Verify(mvk_, Msg("m1"), super_, bent));
  EXPECT_FALSE(BatchAccepts(bent, false));
  EXPECT_FALSE(BatchAccepts(bent, true));
}

TEST_F(AbsApsFoldTest, ProductStaysAtSevenPairs) {
  // Nine signatures over five roles and three predicate shapes: the old
  // per-role grouping would pair one prepared base per role plus h, h0 and
  // a0; the fold keeps A, B, a0, h, h0 and the two message-side pairs.
  std::vector<Policy> preds = {Policy::Parse("RoleA & RoleB"),
                               Policy::Parse("(RoleA & RoleC) | RoleD"),
                               super_};
  BatchAccumulator acc(mvk_);
  for (std::size_t k = 0; k < 9; ++k) {
    const Policy& pred = preds[k % preds.size()];
    auto msg = Msg("p" + std::to_string(k));
    auto sig = Abs::Sign(mvk_, sk_all_, msg, pred, rng_.get());
    ASSERT_TRUE(sig.has_value());
    ASSERT_TRUE(acc.Accumulate(msg, pred, *sig, rng_.get()));
  }
  EXPECT_TRUE(acc.Check());
  EXPECT_EQ(acc.PairCount(), 7u);

  BatchAccumulator empty(mvk_);
  EXPECT_TRUE(empty.Check());
  EXPECT_EQ(empty.PairCount(), 0u);
}

// --- ABS.Relax rho fold vs the build-then-re-randomize reference ---

// Test-local copy of Algorithm 2 as Abs::Relax computed it before fresh
// rows were folded into rho: each fresh row is built as (C g^mu)^{r_i}, its
// (A B^{u_i})^{r_i} joins P, and only then is every component raised to
// rho. It draws the same randomness in the same order, so for one RNG
// stream it must produce the same group elements — and therefore the same
// serialized bytes — as the production path.
std::optional<Signature> ReferenceRelax(const VerifyKey& mvk,
                                        const Signature& sig,
                                        const Policy& predicate,
                                        const std::vector<std::uint8_t>& msg,
                                        const RoleSet& relax_to, Rng* rng) {
  policy::Msp msp = policy::BuildMsp(predicate);
  if (sig.s.size() != msp.Rows() || sig.p.size() != msp.Cols()) {
    return std::nullopt;
  }
  policy::PurgeResult purge = policy::Purge(predicate, relax_to);
  if (!purge.ok) return std::nullopt;
  Fr mu = internal::MessageScalar(sig.tau, msg, sig.epoch);
  const VerifyKey::Precomp& pc = mvk.precomp();

  G2 p1 = G2::Infinity();
  for (std::size_t j : purge.kept_cols) p1 = p1 + sig.p[j];
  Signature out;
  out.tau = sig.tau;
  out.epoch = sig.epoch;
  for (const auto& role : relax_to) {
    G1 merged = G1::Infinity();
    bool found = false;
    for (std::size_t k : purge.kept_rows) {
      if (msp.row_labels[k] == role) {
        merged = merged + sig.s[k];
        found = true;
      }
    }
    if (!found) {
      crypto::SecretFr r = rng->NextNonZeroSecretFr();
      merged = pc.c_tab.MulCt(r) + pc.g_tab.MulCt(mu * r);
      Fr u = RoleScalar(role);
      p1 = p1 + pc.a_tab.MulCt(r) + pc.b_tab.MulCt(u * r);
    }
    out.s.push_back(merged);
  }
  crypto::SecretFr rho = rng->NextNonZeroSecretFr();
  out.y = crypto::CtScalarMul(sig.y, rho);
  out.w = crypto::CtScalarMul(sig.w, rho);
  for (G1& si : out.s) si = crypto::CtScalarMul(si, rho);
  out.p = {crypto::CtScalarMul(p1, rho)};
  return out;
}

std::vector<std::uint8_t> Bytes(const Signature& sig) {
  common::ByteWriter w;
  sig.Serialize(&w);
  return w.data();
}

struct FoldCase {
  const char* name;
  Policy predicate;
  RoleSet relax_to;
};

// Every relax set keeps at least one row (Purge only succeeds when one
// survives), so "all fresh" is covered as "every role but the kept one".
TEST(AbsRelaxFold, MatchesBuildThenRerandomizeReference) {
  Rng setup_rng(4711);
  MasterKey msk;
  VerifyKey mvk;
  Abs::Setup(&setup_rng, &msk, &mvk);
  core::RoleHierarchy h;
  h.AddEdge("RoleA", "RoleA.S");
  h.AddEdge("RoleA", "RoleA.P");
  h.AddEdge("RoleB", "RoleB.S");
  RoleSet universe = {"Role0",   "RoleA", "RoleA.S", "RoleA.P",
                      "RoleB",   "RoleB.S", "RoleC", "RoleD"};
  SigningKey sk = Abs::KeyGen(msk, universe, &setup_rng);

  const Policy dup = Policy::Parse("(RoleA & RoleB) | (RoleA & RoleC)");
  const Policy nested =
      Policy::Parse("(RoleA & (RoleB | RoleC)) | (RoleC & RoleD)");
  const Policy augmented = h.Augment(Policy::Parse("RoleA.P | RoleB.S"));
  RoleSet lacked;  // a student of A: lacks everything outside {A, A.S}
  for (const auto& role : universe) {
    if (role != "RoleA" && role != "RoleA.S") lacked.insert(role);
  }
  const RoleSet reduced = h.ReduceLackedSet(lacked);
  ASSERT_LT(reduced.size(), lacked.size());

  const std::vector<FoldCase> cases = {
      {"dup_zero_fresh", dup, {"RoleA"}},
      {"dup_mixed", dup, {"Role0", "RoleA", "RoleB", "RoleC"}},
      {"dup_all_but_kept_fresh", dup, universe},
      {"nested_mixed", nested, {"Role0", "RoleA", "RoleC", "RoleD"}},
      {"single_zero_fresh", Policy::Parse("RoleC"), {"RoleC"}},
      {"hierarchy_reduced", augmented, reduced},
  };
  const std::vector<std::uint8_t> msg = Msg("fold");
  for (const FoldCase& c : cases) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      Rng sign_rng(seed);
      auto sig = Abs::Sign(mvk, sk, msg, c.predicate, &sign_rng);
      ASSERT_TRUE(sig.has_value());
      Rng rng_ref(1000 + seed), rng_new(1000 + seed);
      auto ref = ReferenceRelax(mvk, *sig, c.predicate, msg, c.relax_to,
                                &rng_ref);
      auto aps = Abs::Relax(mvk, *sig, c.predicate, msg, c.relax_to, &rng_new);
      ASSERT_TRUE(ref.has_value());
      ASSERT_TRUE(aps.has_value());
      EXPECT_EQ(Bytes(*aps), Bytes(*ref));
      const Policy super = Policy::OrOfRoles(c.relax_to);
      EXPECT_TRUE(Abs::Verify(mvk, msg, super, *aps));
      EXPECT_TRUE(VerifyUnprepared(mvk, msg, super, *aps, /*exact=*/true));
    }
  }
}

// --- ABS.Sign column fold vs the per-row reference ---

// Test-local copy of ABS.Sign as it computed P before the G2 terms were
// folded per column: each row builds t_i = (A B^{u_i})^{r_i} on the
// fixed-base tables, and P_j is then the signed sum of the rows' t_i over
// column j of the span program. It draws the same randomness in the same
// order, so for one RNG stream it must produce the same group elements —
// and therefore the same serialized bytes — as the production path.
std::optional<Signature> ReferenceSign(const VerifyKey& mvk,
                                       const SigningKey& sk,
                                       const std::vector<std::uint8_t>& msg,
                                       const Policy& predicate, Rng* rng) {
  policy::Msp msp = policy::BuildMsp(predicate);
  RoleSet owned;
  for (const auto& [role, key] : sk.k_attr) owned.insert(role);
  auto v = policy::SatisfyingVector(predicate, owned);
  if (!v.has_value()) return std::nullopt;

  Signature sig;
  rng->Fill(sig.tau.data(), sig.tau.size());
  Fr mu = internal::MessageScalar(sig.tau, msg, sig.epoch);
  const VerifyKey::Precomp& pc = mvk.precomp();
  crypto::SecretFr r0 = rng->NextNonZeroSecretFr();
  sig.y = sk.k_base_tab.MulCt(r0);
  sig.w = sk.k0_tab.MulCt(r0);
  std::size_t rows = msp.Rows(), cols = msp.Cols();
  std::vector<crypto::SecretFr> ri(rows);
  for (auto& r : ri) r = rng->NextNonZeroSecretFr();

  std::vector<G2> ti(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    G1 si = pc.c_tab.MulCt(ri[i]) + pc.g_tab.MulCt(mu * ri[i]);
    if ((*v)[i] != 0) {
      si = si + crypto::CtScalarMul(sk.k_attr.at(msp.row_labels[i]), r0);
    }
    sig.s.push_back(si);
    Fr ui = RoleScalar(msp.row_labels[i]);
    ti[i] = pc.a_tab.MulCt(ri[i]) + pc.b_tab.MulCt(ui * ri[i]);
  }
  sig.p.assign(cols, G2::Infinity());
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) {
      if (msp.m[i][j] == 1) {
        sig.p[j] = sig.p[j] + ti[i];
      } else if (msp.m[i][j] == -1) {
        sig.p[j] = sig.p[j] - ti[i];
      }
    }
  }
  return sig;
}

bool HasNegativeEntry(const policy::Msp& msp) {
  for (const auto& row : msp.m) {
    for (std::int8_t e : row) {
      if (e == -1) return true;
    }
  }
  return false;
}

TEST(AbsSignFold, MatchesPerRowReference) {
  Rng setup_rng(4242);
  MasterKey msk;
  VerifyKey mvk;
  Abs::Setup(&setup_rng, &msk, &mvk);
  RoleSet universe = {"Role0", "RoleA", "RoleB", "RoleC", "RoleD"};
  RoleSet signer = universe;
  signer.insert(core::kPseudoRole);
  SigningKey sk = Abs::KeyGen(msk, signer, &setup_rng);

  struct SignCase {
    std::string name;
    Policy predicate;
  };
  const Policy and_heavy = Policy::Parse(
      "(RoleA & RoleB & RoleC) | (RoleB & RoleD) | (RoleA & RoleC & RoleD)");
  const policy::Msp and_heavy_msp = policy::BuildMsp(and_heavy);
  ASSERT_GE(and_heavy_msp.Cols(), 3u);
  ASSERT_TRUE(HasNegativeEntry(and_heavy_msp));
  std::vector<SignCase> cases = {
      {"or_of_roles", Policy::OrOfRoles(universe)},
      {"and_heavy_dnf", and_heavy},
      {"duplicate_labels", Policy::Parse("(RoleA & RoleB) | (RoleA & RoleC)")},
  };

  // Real node policies: an 8x8 AP²G-tree over DNF record policies. Levels
  // 0-2 are its internal nodes (OR of the children's policies, reduced
  // DNF); each contributes its widest-MSP node.
  const std::vector<Policy> record_policies = {
      Policy::Parse("(RoleA & RoleB) | RoleC"),
      Policy::Parse("(RoleB & RoleD) | (RoleA & RoleC & RoleD)"),
      Policy::Parse("RoleA & RoleD"),
      Policy::Parse("Role0 | (RoleB & RoleC)"),
  };
  std::vector<core::Record> records;
  for (std::uint32_t k = 0; k < 12; ++k) {
    core::Point key{k % 8, (k / 8 * 4 + 3 * k) % 8};
    records.push_back(core::Record{key, "r" + std::to_string(k),
                                   record_policies[k % 4]});
  }
  core::GridTree tree = core::GridTree::Build(mvk, sk, core::Domain{2, 3},
                                              records, &setup_rng);
  std::vector<core::GridTree::NodeId> frontier = {tree.Root()};
  for (int level = 0; level <= 2; ++level) {
    const Policy* widest = nullptr;
    std::size_t widest_cols = 0;
    std::vector<core::GridTree::NodeId> next;
    for (const auto& id : frontier) {
      const Policy& pol = tree.GetNode(id).policy;
      std::size_t c = policy::BuildMsp(pol).Cols();
      if (widest == nullptr || c > widest_cols) {
        widest = &pol;
        widest_cols = c;
      }
      for (const auto& child : tree.Children(id)) next.push_back(child);
    }
    ASSERT_NE(widest, nullptr);
    cases.push_back({"grid_level_" + std::to_string(level), *widest});
    frontier = std::move(next);
  }
  ASSERT_GE(policy::BuildMsp(cases.back().predicate).Cols(), 2u);

  const std::vector<std::uint8_t> msg = Msg("sign-fold");
  for (const SignCase& c : cases) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(c.name + " seed " + std::to_string(seed));
      Rng rng_ref(seed), rng_new(seed);
      auto ref = ReferenceSign(mvk, sk, msg, c.predicate, &rng_ref);
      auto sig = Abs::Sign(mvk, sk, msg, c.predicate, &rng_new);
      ASSERT_TRUE(ref.has_value());
      ASSERT_TRUE(sig.has_value());
      EXPECT_EQ(Bytes(*sig), Bytes(*ref));
      EXPECT_TRUE(Abs::Verify(mvk, msg, c.predicate, *sig));
      EXPECT_TRUE(
          VerifyUnprepared(mvk, msg, c.predicate, *sig, /*exact=*/true));
    }
  }
}

}  // namespace
}  // namespace apqa::abs
