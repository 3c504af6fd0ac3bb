// Security-property tests (paper §7): zero-knowledge indistinguishability
// at the protocol level and unforgeability-style negative tests.
//
// The formal zero-knowledge game (Definition 7.5) says a user cannot
// distinguish the real database from an "ideal" database where every
// inaccessible record is replaced by ⟨o, random, Role_∅⟩. We test the
// observable consequences: VOs produced against the two databases have the
// same structure (entry kinds, signature component counts, byte sizes) and
// both verify, while the relaxed signatures are re-randomized (never
// repeating across queries).
#include <gtest/gtest.h>

#include "core/system.h"
#include "verify_ok.h"

namespace apqa::core {
namespace {

Record Rec(std::uint32_t key, const std::string& v, const char* pol) {
  return Record{Point{key}, v, Policy::Parse(pol)};
}

// Structural fingerprint of a VO as seen by the user: entry kinds in order
// of region, plus the (l, t) shape of every signature.
std::vector<std::string> VoShape(const Vo& vo) {
  std::vector<std::string> shape;
  for (const auto& e : vo.entries) {
    if (const auto* res = std::get_if<ResultEntry>(&e)) {
      shape.push_back("result(l=" + std::to_string(res->app_sig.s.size()) +
                      ",t=" + std::to_string(res->app_sig.p.size()) + ")");
    } else if (const auto* rec = std::get_if<InaccessibleRecordEntry>(&e)) {
      shape.push_back("hidden-rec(l=" + std::to_string(rec->aps_sig.s.size()) +
                      ",t=" + std::to_string(rec->aps_sig.p.size()) + ")");
    } else {
      const auto& b = std::get<InaccessibleBoxEntry>(e);
      shape.push_back("hidden-box(l=" + std::to_string(b.aps_sig.s.size()) +
                      ",t=" + std::to_string(b.aps_sig.p.size()) + ")");
    }
  }
  return shape;
}

class ZeroKnowledgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    domain_ = Domain{1, 4};
    universe_ = {"RoleA", "RoleB", "RoleC"};
  }
  Domain domain_;
  RoleSet universe_;
};

TEST_F(ZeroKnowledgeTest, RealAndIdealDatabasesProduceSameVoShapes) {
  // Real database: user {RoleA} can access keys 1, 7; keys 4, 9 are
  // inaccessible with *different, secret* policies.
  std::vector<Record> real_db = {
      Rec(1, "v1", "RoleA"),
      Rec(4, "v4", "RoleB & RoleC"),
      Rec(7, "v7", "RoleA | RoleB"),
      Rec(9, "v9", "RoleC"),
  };
  // Ideal database (Definition 7.5): inaccessible records replaced by
  // pseudo records. Note keys 4 and 9 are simply absent — the grid tree
  // fills them with Role_∅ pseudo records automatically.
  std::vector<Record> ideal_db = {
      Rec(1, "v1", "RoleA"),
      Rec(7, "v7", "RoleA | RoleB"),
  };
  DataOwner owner_real(universe_, domain_, 111);
  DataOwner owner_ideal(universe_, domain_, 111);
  ServiceProvider sp_real(owner_real.keys(), owner_real.BuildAds(real_db));
  ServiceProvider sp_ideal(owner_ideal.keys(), owner_ideal.BuildAds(ideal_db));
  RoleSet roles = {"RoleA"};

  for (const Box& range : {Box{{0}, {15}}, Box{{3}, {10}}, Box{{8}, {9}}}) {
    Vo vo_real = sp_real.RangeQuery(range, roles);
    Vo vo_ideal = sp_ideal.RangeQuery(range, roles);
    EXPECT_EQ(VoShape(vo_real), VoShape(vo_ideal))
        << "range [" << range.lo[0] << "," << range.hi[0] << "]";
    EXPECT_EQ(vo_real.SerializedSize(), vo_ideal.SerializedSize());
    // Both verify for their respective users.
    User u_real(owner_real.keys(), owner_real.EnrollUser(roles));
    User u_ideal(owner_ideal.keys(), owner_ideal.EnrollUser(roles));
    EXPECT_TRUE(VerifyOk(u_real.VerifyRange(range, vo_real, nullptr)));
    EXPECT_TRUE(VerifyOk(u_ideal.VerifyRange(range, vo_ideal, nullptr)));
  }
}

TEST_F(ZeroKnowledgeTest, EqualityVoIdenticalShapeForHiddenAndAbsent) {
  std::vector<Record> db = {Rec(4, "secret", "RoleB & RoleC")};
  DataOwner owner(universe_, domain_, 222);
  ServiceProvider sp(owner.keys(), owner.BuildAds(db));
  RoleSet roles = {"RoleA"};
  Vo hidden = sp.EqualityQuery({4}, roles);   // record exists, inaccessible
  Vo absent = sp.EqualityQuery({5}, roles);   // no record
  EXPECT_EQ(VoShape(hidden), VoShape(absent));
  EXPECT_EQ(hidden.SerializedSize(), absent.SerializedSize());
}

TEST_F(ZeroKnowledgeTest, ApsSignaturesAreRerandomizedPerQuery) {
  std::vector<Record> db = {Rec(4, "secret", "RoleB")};
  DataOwner owner(universe_, domain_, 333);
  ServiceProvider sp(owner.keys(), owner.BuildAds(db));
  RoleSet roles = {"RoleA"};
  Vo a = sp.EqualityQuery({4}, roles);
  Vo b = sp.EqualityQuery({4}, roles);
  const auto& ea = std::get<InaccessibleRecordEntry>(a.entries[0]);
  const auto& eb = std::get<InaccessibleRecordEntry>(b.entries[0]);
  // Fresh randomness every time: no signature component repeats.
  EXPECT_FALSE(ea.aps_sig.y == eb.aps_sig.y);
  EXPECT_FALSE(ea.aps_sig.s[0] == eb.aps_sig.s[0]);
  EXPECT_FALSE(ea.aps_sig.p[0] == eb.aps_sig.p[0]);
}

class UnforgeabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    domain_ = Domain{1, 4};
    universe_ = {"RoleA", "RoleB"};
    owner_ = std::make_unique<DataOwner>(universe_, domain_, 444);
    db_ = {Rec(2, "v2", "RoleA"), Rec(6, "v6", "RoleB"),
           Rec(11, "v11", "RoleA & RoleB")};
    sp_ = std::make_unique<ServiceProvider>(owner_->keys(),
                                            owner_->BuildAds(db_));
  }
  Domain domain_;
  RoleSet universe_;
  std::unique_ptr<DataOwner> owner_;
  std::vector<Record> db_;
  std::unique_ptr<ServiceProvider> sp_;
};

TEST_F(UnforgeabilityTest, CannotPresentAccessibleRecordAsHidden) {
  // Definition 7.4 case 3: the SP tries to hide record 2 from a RoleA user
  // by fabricating an "inaccessible" entry. ABS.Relax fails (the policy is
  // satisfied avoiding the lacked roles), so the SP must reuse a signature
  // it cannot have — simulate the best it can do: reuse the APP signature
  // verbatim as an APS signature.
  RoleSet roles = {"RoleA"};
  Box range{{0}, {15}};
  Vo vo = sp_->RangeQuery(range, roles);
  Vo forged;
  for (const auto& e : vo.entries) {
    if (const auto* res = std::get_if<ResultEntry>(&e);
        res != nullptr && res->key == Point{2}) {
      InaccessibleRecordEntry fake;
      fake.key = res->key;
      fake.value_hash = crypto::Sha256::Hash(res->value.data(),
                                             res->value.size());
      fake.aps_sig = res->app_sig;  // wrong predicate shape
      forged.entries.push_back(fake);
      continue;
    }
    forged.entries.push_back(e);
  }
  User user(owner_->keys(), owner_->EnrollUser(roles));
  EXPECT_FALSE(user.VerifyRange(range, forged, nullptr));
}

TEST_F(UnforgeabilityTest, CannotReplayVoForDifferentRange) {
  RoleSet roles = {"RoleA"};
  Box range{{0}, {7}};
  Vo vo = sp_->RangeQuery(range, roles);
  User user(owner_->keys(), owner_->EnrollUser(roles));
  ASSERT_TRUE(VerifyOk(user.VerifyRange(range, vo, nullptr)));
  // Same VO against a wider range: coverage fails (record 11 would be
  // silently omitted).
  EXPECT_FALSE(user.VerifyRange(Box{{0}, {15}}, vo, nullptr));
  // And against a narrower range that leaves result 2 outside it.
  EXPECT_FALSE(user.VerifyRange(Box{{0}, {1}}, vo, nullptr));
  // A narrower range that only cuts through the inaccessible box [4, 7] is
  // no forgery: the box's APS proves its in-range part [4, 5] too, so the
  // replay verifies to exactly the records of a fresh VO for [0, 5].
  Box narrow{{0}, {5}};
  std::vector<Record> replayed, fresh;
  ASSERT_TRUE(VerifyOk(user.VerifyRange(narrow, vo, &replayed)));
  ASSERT_TRUE(VerifyOk(
      user.VerifyRange(narrow, sp_->RangeQuery(narrow, roles), &fresh)));
  ASSERT_EQ(replayed.size(), 1u);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(replayed[0].value, "v2");
  EXPECT_EQ(fresh[0].value, "v2");
}

TEST_F(UnforgeabilityTest, CannotSpliceEntriesAcrossUsers) {
  // An APS signature derived for user {RoleB} embeds a different super
  // policy; replaying it to user {RoleA} must fail.
  Box range{{0}, {15}};
  Vo vo_b = sp_->RangeQuery(range, {"RoleB"});
  User user_a(owner_->keys(), owner_->EnrollUser({"RoleA"}));
  EXPECT_FALSE(user_a.VerifyRange(range, vo_b, nullptr));
}

TEST_F(UnforgeabilityTest, CannotSubstituteValueUnderSameKey) {
  // Swap the values of two result entries (keys keep their signatures): the
  // signatures bind hash(o)|hash(v), so both entries must fail.
  RoleSet roles = {"RoleA", "RoleB"};  // sees all three records
  Box range{{0}, {15}};
  Vo vo = sp_->RangeQuery(range, roles);
  Vo forged = vo;
  ResultEntry* first = nullptr;
  bool swapped = false;
  for (auto& e : forged.entries) {
    if (auto* res = std::get_if<ResultEntry>(&e)) {
      if (first == nullptr) {
        first = res;
      } else {
        std::swap(first->value, res->value);
        swapped = true;
        break;
      }
    }
  }
  ASSERT_TRUE(swapped);
  User user(owner_->keys(), owner_->EnrollUser(roles));
  EXPECT_FALSE(user.VerifyRange(range, forged, nullptr));
}

}  // namespace
}  // namespace apqa::core
