// Tests for hierarchical role assignment (§8.1).
#include <gtest/gtest.h>

#include "abs/abs.h"
#include "core/app_signature.h"
#include "core/hierarchy.h"
#include "core/range_query.h"
#include "core/system.h"
#include "verify_ok.h"

namespace apqa::core {
namespace {

RoleHierarchy UniversityHierarchy() {
  // §8.1 example: universities A and B with student/professor sub-roles.
  RoleHierarchy h;
  h.AddEdge("RoleA", "RoleA.S");
  h.AddEdge("RoleA", "RoleA.P");
  h.AddEdge("RoleB", "RoleB.S");
  h.AddEdge("RoleB", "RoleB.P");
  return h;
}

TEST(HierarchyTest, AncestorsAndClosure) {
  RoleHierarchy h = UniversityHierarchy();
  EXPECT_EQ(h.Ancestors("RoleA.S"), (policy::RoleSet{"RoleA"}));
  EXPECT_TRUE(h.Ancestors("RoleA").empty());
  EXPECT_EQ(h.Close({"RoleB.S"}), (policy::RoleSet{"RoleB", "RoleB.S"}));
}

TEST(HierarchyTest, RejectsCyclesAndDoubleParents) {
  RoleHierarchy h;
  h.AddEdge("A", "B");
  h.AddEdge("B", "C");
  EXPECT_THROW(h.AddEdge("C", "A"), std::invalid_argument);
  EXPECT_THROW(h.AddEdge("X", "B"), std::invalid_argument);
  EXPECT_THROW(h.AddEdge("A", "A"), std::invalid_argument);
}

TEST(HierarchyTest, AugmentAddsAncestorChain) {
  RoleHierarchy h = UniversityHierarchy();
  // §8.1: a professors-of-A policy becomes RoleA ∧ RoleA.P.
  policy::Policy p = policy::Policy::Parse("RoleA.P");
  policy::Policy aug = h.Augment(p);
  EXPECT_EQ(aug.ToString(), "(RoleA & RoleA.P)");
}

TEST(HierarchyTest, ReduceLackedSetKeepsTopMost) {
  RoleHierarchy h = UniversityHierarchy();
  // §8.1: user with RoleB.S lacks {RoleA, RoleA.S, RoleA.P, RoleB.P}; the
  // reduced inaccessible predicate is RoleA ∨ RoleB.P.
  policy::RoleSet lacked = {"RoleA", "RoleA.S", "RoleA.P", "RoleB.P"};
  EXPECT_EQ(h.ReduceLackedSet(lacked),
            (policy::RoleSet{"RoleA", "RoleB.P"}));
}

TEST(HierarchyTest, ReducedRelaxationVerifies) {
  // End-to-end: sign with an augmented policy, relax to the *reduced*
  // lacked set, verify under the reduced super policy.
  crypto::Rng rng(1212);
  abs::MasterKey msk;
  abs::VerifyKey mvk;
  abs::Abs::Setup(&rng, &msk, &mvk);
  RoleHierarchy h = UniversityHierarchy();
  policy::RoleSet universe = {"RoleA",   "RoleA.S", "RoleA.P",
                              "RoleB",   "RoleB.S", "RoleB.P",
                              kPseudoRole};
  abs::SigningKey sk = abs::Abs::KeyGen(msk, universe, &rng);

  policy::Policy original = policy::Policy::Parse("RoleA.P");
  policy::Policy augmented = h.Augment(original);
  std::vector<std::uint8_t> msg = {'m'};
  auto sig = abs::Abs::Sign(mvk, sk, msg, augmented, &rng);
  ASSERT_TRUE(sig.has_value());

  // User: student of B. Closed roles {RoleB, RoleB.S}.
  policy::RoleSet user = h.Close({"RoleB.S"});
  EXPECT_FALSE(augmented.Evaluate(user));
  policy::RoleSet lacked = SuperPolicyRoles(universe, user);
  policy::RoleSet reduced = h.ReduceLackedSet(lacked);
  EXPECT_LT(reduced.size(), lacked.size());

  auto aps = abs::Abs::Relax(mvk, *sig, augmented, msg, reduced, &rng);
  ASSERT_TRUE(aps.has_value());
  EXPECT_TRUE(abs::Abs::Verify(mvk, msg, policy::Policy::OrOfRoles(reduced),
                               *aps));
  // The APS signature is smaller than under the unreduced lack set.
  auto aps_full = abs::Abs::Relax(mvk, *sig, augmented, msg, lacked, &rng);
  ASSERT_TRUE(aps_full.has_value());
  EXPECT_LT(aps->SerializedSize(), aps_full->SerializedSize());
}

TEST(HierarchyTest, ReducedLackedContextVerifiesRangeVo) {
  // §8.1 end-to-end over a range VO: the SP relaxes every APS signature to
  // the reduced lacked set, so only a context carrying that set accepts it.
  RoleHierarchy h = UniversityHierarchy();
  Domain domain{/*dims=*/1, /*bits=*/3};
  DataOwner owner(RoleSet{"RoleA", "RoleA.S", "RoleA.P", "RoleB", "RoleB.S",
                          "RoleB.P"},
                  domain, 1414);
  auto rec = [&](std::uint32_t key, const char* value, const char* policy) {
    return Record{Point{key}, value, h.Augment(Policy::Parse(policy))};
  };
  GridTree tree = owner.BuildAds({rec(1, "a-prof", "RoleA.P"),
                                  rec(3, "b-student", "RoleB.S"),
                                  rec(5, "mixed", "RoleA.S | RoleB.P"),
                                  rec(6, "b-all", "RoleB")});
  const SystemKeys& keys = owner.keys();
  RoleSet user = h.Close({"RoleB.S"});
  RoleSet reduced = h.ReduceLackedSet(SuperPolicyRoles(keys.universe, user));
  Box range{Point{0}, Point{7}};
  Rng rng(15);
  Vo vo = BuildRangeVoWithLacked(tree, keys.mvk, range, user, reduced, &rng);

  VerifyContext reduced_ctx(keys.mvk, domain, user, keys.universe);
  reduced_ctx.lacked = reduced;
  std::vector<Record> results;
  ASSERT_TRUE(VerifyOk(VerifyRangeVo(reduced_ctx, range, vo, &results)));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].value, "b-student");
  EXPECT_EQ(results[1].value, "b-all");

  // The universe-derived context expects the unreduced super policy: the
  // first APS entry is where verification breaks.
  std::ptrdiff_t first_aps = -1;
  for (std::size_t i = 0; i < vo.entries.size() && first_aps < 0; ++i) {
    if (!std::holds_alternative<ResultEntry>(vo.entries[i])) {
      first_aps = static_cast<std::ptrdiff_t>(i);
    }
  }
  ASSERT_GE(first_aps, 0);
  VerifyContext full_ctx(keys.mvk, domain, user, keys.universe);
  VerifyResult r = VerifyRangeVo(full_ctx, range, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kBadSignature) << r.ToString();
  EXPECT_EQ(r.entry_index, first_aps) << r.ToString();
}

TEST(HierarchyTest, ReductionUnsoundWithoutAugmentation) {
  // Sanity check of why Augment matters: with the raw policy RoleA.P, the
  // reduced set {RoleA, RoleB.P} is not a valid relaxation target because
  // 𝔸 \ reduced still contains RoleA.P.
  crypto::Rng rng(1313);
  abs::MasterKey msk;
  abs::VerifyKey mvk;
  abs::Abs::Setup(&rng, &msk, &mvk);
  RoleHierarchy h = UniversityHierarchy();
  policy::RoleSet universe = {"RoleA",   "RoleA.S", "RoleA.P",
                              "RoleB",   "RoleB.S", "RoleB.P",
                              kPseudoRole};
  abs::SigningKey sk = abs::Abs::KeyGen(msk, universe, &rng);
  policy::Policy original = policy::Policy::Parse("RoleA.P");
  std::vector<std::uint8_t> msg = {'m'};
  auto sig = abs::Abs::Sign(mvk, sk, msg, original, &rng);
  policy::RoleSet user = h.Close({"RoleB.S"});
  policy::RoleSet reduced = h.ReduceLackedSet(SuperPolicyRoles(universe, user));
  EXPECT_FALSE(abs::Abs::Relax(mvk, *sig, original, msg, reduced, &rng)
                   .has_value());
}

}  // namespace
}  // namespace apqa::core
