// End-to-end protocol tests: DO → SP → User for equality, range, and join
// query authentication over the AP²G-tree, including soundness (tamper
// rejection), completeness, and the zero-knowledge indistinguishability of
// inaccessible vs. non-existent records.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>

#include "core/ads_update.h"
#include "core/continuous.h"
#include "core/duplicates.h"
#include "core/kd_tree.h"
#include "core/parallel_verify.h"
#include "core/system.h"
#include "tpch/tpch.h"
#include "verify_ok.h"

namespace apqa::core {
namespace {

Record Rec(std::uint32_t key, const std::string& value, const char* pol) {
  return Record{Point{key}, value, Policy::Parse(pol)};
}

class SystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Domain domain{/*dims=*/1, /*bits=*/4};  // keys 0..15
    owner_ = std::make_unique<DataOwner>(RoleSet{"RoleA", "RoleB", "RoleC"},
                                         domain, 4242);
    records_ = {
        Rec(1, "v1", "RoleA"),
        Rec(3, "v3", "RoleA & RoleB"),
        Rec(4, "v4", "RoleC"),
        Rec(7, "v7", "(RoleA & RoleB) | RoleC"),
        Rec(9, "v9", "RoleB"),
        Rec(12, "v12", "RoleC & RoleB"),
    };
    sp_ = std::make_unique<ServiceProvider>(owner_->keys(),
                                            owner_->BuildAds(records_));
    user_ab_ = std::make_unique<User>(owner_->keys(),
                                      owner_->EnrollUser({"RoleA", "RoleB"}));
    user_c_ = std::make_unique<User>(owner_->keys(),
                                     owner_->EnrollUser({"RoleC"}));
  }

  std::unique_ptr<DataOwner> owner_;
  std::vector<Record> records_;
  std::unique_ptr<ServiceProvider> sp_;
  std::unique_ptr<User> user_ab_, user_c_;
};

TEST_F(SystemTest, EqualityAccessible) {
  Vo vo = sp_->EqualityQuery(Point{1}, user_ab_->roles());
  Record result;
  bool accessible = false;
  ASSERT_TRUE(
      VerifyOk(user_ab_->VerifyEquality(Point{1}, vo, &result, &accessible)));
  EXPECT_TRUE(accessible);
  EXPECT_EQ(result.value, "v1");
}

TEST_F(SystemTest, EqualityInaccessibleAndAbsentLookAlike) {
  // Key 4 exists but needs RoleC; key 5 does not exist. For user {A,B} both
  // must verify as "inaccessible" with the same entry shape.
  for (std::uint32_t key : {4u, 5u}) {
    Vo vo = sp_->EqualityQuery(Point{key}, user_ab_->roles());
    ASSERT_EQ(vo.entries.size(), 1u);
    EXPECT_TRUE(
        std::holds_alternative<InaccessibleRecordEntry>(vo.entries[0]));
    bool accessible = true;
    ASSERT_TRUE(VerifyOk(
        user_ab_->VerifyEquality(Point{key}, vo, nullptr, &accessible)))
        << "key " << key;
    EXPECT_FALSE(accessible);
  }
}

TEST_F(SystemTest, EqualityVoDoesNotMatchOtherKey) {
  Vo vo = sp_->EqualityQuery(Point{1}, user_ab_->roles());
  bool accessible;
  EXPECT_FALSE(user_ab_->VerifyEquality(Point{2}, vo, nullptr, &accessible));
}

TEST_F(SystemTest, RangeQueryReturnsAccessibleRecords) {
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  std::vector<Record> results;
  ASSERT_TRUE(VerifyOk(user_ab_->VerifyRange(range, vo, &results)));
  // user {A,B} can access: 1 (A), 3 (A&B), 7 ((A&B)|C), 9 (B) — not 4 (C).
  std::set<std::uint32_t> keys;
  for (const auto& r : results) keys.insert(r.key[0]);
  EXPECT_EQ(keys, (std::set<std::uint32_t>{1, 3, 7, 9}));
}

TEST_F(SystemTest, RangeQueryOtherUser) {
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_c_->roles());
  std::vector<Record> results;
  ASSERT_TRUE(VerifyOk(user_c_->VerifyRange(range, vo, &results)));
  std::set<std::uint32_t> keys;
  for (const auto& r : results) keys.insert(r.key[0]);
  EXPECT_EQ(keys, (std::set<std::uint32_t>{4, 7}));
}

TEST_F(SystemTest, RangeAggregatesInaccessibleSubtrees) {
  // Full-domain query: inaccessible regions should be summarized by
  // internal-node APS entries, so the VO has fewer entries than cells.
  Box range{Point{0}, Point{15}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  EXPECT_LT(vo.entries.size(), 16u);
  ASSERT_TRUE(VerifyOk(user_ab_->VerifyRange(range, vo, nullptr)));
  bool has_box_entry = false;
  for (const auto& e : vo.entries) {
    has_box_entry |= std::holds_alternative<InaccessibleBoxEntry>(e);
  }
  EXPECT_TRUE(has_box_entry);
}

TEST_F(SystemTest, RangeRejectsDroppedEntry) {
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  Vo bad = vo;
  bad.entries.pop_back();  // incomplete coverage
  EXPECT_FALSE(user_ab_->VerifyRange(range, bad, nullptr));
}

TEST_F(SystemTest, RangeRejectsDroppedResult) {
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  Vo bad;
  for (const auto& e : vo.entries) {
    if (const auto* res = std::get_if<ResultEntry>(&e);
        res != nullptr && res->key == Point{3}) {
      continue;  // SP tries to hide record 3
    }
    bad.entries.push_back(e);
  }
  EXPECT_FALSE(user_ab_->VerifyRange(range, bad, nullptr));
}

TEST_F(SystemTest, RangeRejectsTamperedValue) {
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  Vo bad = vo;
  for (auto& e : bad.entries) {
    if (auto* res = std::get_if<ResultEntry>(&e)) {
      res->value = "forged";
      break;
    }
  }
  EXPECT_FALSE(user_ab_->VerifyRange(range, bad, nullptr));
}

TEST_F(SystemTest, RangeRejectsResultPresentedAsInaccessible) {
  // The SP derives an APS signature for an accessible record and presents
  // the record as inaccessible — unforgeability must prevent this, since
  // Relax fails when the user's roles satisfy the policy.
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  // Swap a result entry for a record-APS entry faked from another user's
  // view: query as RoleC user and splice their entry for key 3 (which is
  // inaccessible to them but accessible to {A,B}).
  Vo vo_c = sp_->RangeQuery(range, user_c_->roles());
  Vo bad;
  for (const auto& e : vo.entries) {
    if (const auto* res = std::get_if<ResultEntry>(&e);
        res != nullptr && res->key == Point{3}) {
      for (const auto& ec : vo_c.entries) {
        if (EntryRegion(ec).Contains(Point{3}) &&
            std::holds_alternative<InaccessibleRecordEntry>(ec)) {
          bad.entries.push_back(ec);
        }
      }
      continue;
    }
    bad.entries.push_back(e);
  }
  // Either coverage breaks (RoleC view aggregated differently) or the APS
  // signature fails under user_ab's super policy. It must not verify.
  EXPECT_FALSE(user_ab_->VerifyRange(range, bad, nullptr));
}

TEST_F(SystemTest, BasicRangeMatchesTreeRange) {
  Box range{Point{2}, Point{8}};
  Vo tree_vo = sp_->RangeQuery(range, user_ab_->roles());
  Vo basic_vo = sp_->BasicRangeQuery(range, user_ab_->roles());
  EXPECT_EQ(basic_vo.entries.size(), 7u);  // one per cell
  std::vector<Record> r1, r2;
  ASSERT_TRUE(VerifyOk(user_ab_->VerifyRange(range, tree_vo, &r1)));
  ASSERT_TRUE(VerifyOk(user_ab_->VerifyRange(range, basic_vo, &r2)));
  auto key_of = [](const Record& r) { return r.key[0]; };
  std::set<std::uint32_t> k1, k2;
  for (const auto& r : r1) k1.insert(key_of(r));
  for (const auto& r : r2) k2.insert(key_of(r));
  EXPECT_EQ(k1, k2);
  // The tree VO is no larger than the basic VO.
  EXPECT_LE(tree_vo.entries.size(), basic_vo.entries.size());
}

TEST_F(SystemTest, VoSerializationRoundTrip) {
  Box range{Point{1}, Point{9}};
  Vo vo = sp_->RangeQuery(range, user_ab_->roles());
  common::ByteWriter w;
  vo.Serialize(&w);
  common::ByteReader r(w.data());
  Vo back = Vo::DeserializeRaw(&r);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(VerifyOk(user_ab_->VerifyRange(range, back, nullptr)));
}

TEST_F(SystemTest, SealedEqualityQuery) {
  cpabe::Envelope env = sp_->SealedEqualityQuery(Point{1}, user_ab_->roles());
  Record result;
  bool accessible = false;
  ASSERT_TRUE(VerifyOk(
      user_ab_->OpenAndVerifyEquality(Point{1}, env, &result, &accessible)));
  EXPECT_TRUE(accessible);
  EXPECT_EQ(result.value, "v1");
  EXPECT_FALSE(
      user_c_->OpenAndVerifyEquality(Point{1}, env, nullptr, nullptr));
  EXPECT_GT(env.SerializedSize(), 0u);
}

TEST_F(SystemTest, SealedRangeOnlyOpensForClaimedRoles) {
  Box range{Point{1}, Point{6}};
  cpabe::Envelope env = sp_->SealedRangeQuery(range, user_ab_->roles());
  std::vector<Record> results;
  ASSERT_TRUE(VerifyOk(user_ab_->OpenAndVerifyRange(range, env, &results)));
  // A RoleC user impersonating {A,B} cannot open the response.
  EXPECT_FALSE(user_c_->OpenAndVerifyRange(range, env, nullptr));
}

class JoinTest : public ::testing::Test {
 protected:
  static std::vector<Record> RRecords() {
    return {
        Rec(1, "r1", "RoleA"),
        Rec(3, "r3", "RoleA"),
        Rec(5, "r5", "RoleB"),
        Rec(9, "r9", "RoleA & RoleB"),
    };
  }
  static std::vector<Record> SRecords() {
    return {
        Rec(1, "s1", "RoleA"),
        Rec(4, "s4", "RoleB"),
        Rec(9, "s9", "RoleB"),
        Rec(11, "s11", "RoleA"),
    };
  }

  void SetUp() override {
    owner_ = std::make_unique<DataOwner>(RoleSet{"RoleA", "RoleB"},
                                         Domain{1, 4}, 777);
    sp_ = std::make_unique<ServiceProvider>(owner_->keys(),
                                            owner_->BuildAds(RRecords()));
    sp_->AttachJoinTable(owner_->BuildAds(SRecords()));
    user_a_ = std::make_unique<User>(owner_->keys(),
                                     owner_->EnrollUser({"RoleA"}));
    user_ab_ = std::make_unique<User>(owner_->keys(),
                                      owner_->EnrollUser({"RoleA", "RoleB"}));
  }

  std::unique_ptr<DataOwner> owner_;
  std::unique_ptr<ServiceProvider> sp_;
  std::unique_ptr<User> user_a_, user_ab_;
};

TEST_F(JoinTest, JoinReturnsAccessiblePairs) {
  Box range{Point{0}, Point{15}};
  JoinVo vo = sp_->JoinQuery(range, user_ab_->roles());
  std::vector<std::vector<Record>> results;
  ASSERT_TRUE(VerifyOk(user_ab_->VerifyJoin(range, vo, &results)));
  // Matching keys with both sides real: 1 and 9; both accessible to {A,B}.
  std::set<std::uint32_t> keys;
  for (const auto& row : results) keys.insert(row[0].key[0]);
  EXPECT_EQ(keys, (std::set<std::uint32_t>{1, 9}));
}

TEST_F(JoinTest, JoinFiltersInaccessibleSides) {
  Box range{Point{0}, Point{15}};
  JoinVo vo = sp_->JoinQuery(range, user_a_->roles());
  std::vector<std::vector<Record>> results;
  ASSERT_TRUE(VerifyOk(user_a_->VerifyJoin(range, vo, &results)));
  // Key 9 pair exists but R side needs RoleB: only key 1 joins for RoleA.
  std::set<std::uint32_t> keys;
  for (const auto& row : results) keys.insert(row[0].key[0]);
  EXPECT_EQ(keys, (std::set<std::uint32_t>{1}));
}

TEST_F(JoinTest, JoinRejectsDroppedPair) {
  Box range{Point{0}, Point{15}};
  JoinVo vo = sp_->JoinQuery(range, user_ab_->roles());
  JoinVo bad = vo;
  ASSERT_FALSE(bad.tuples.empty());
  bad.tuples.pop_back();
  EXPECT_FALSE(user_ab_->VerifyJoin(range, bad, nullptr));
}

TEST_F(JoinTest, JoinRejectsMismatchedPairKeys) {
  Box range{Point{0}, Point{15}};
  JoinVo vo = sp_->JoinQuery(range, user_ab_->roles());
  ASSERT_GE(vo.tuples.size(), 2u);
  JoinVo bad = vo;
  std::swap(bad.tuples[0][1], bad.tuples[1][1]);
  EXPECT_FALSE(user_ab_->VerifyJoin(range, bad, nullptr));
}

TEST_F(JoinTest, JoinSerializationRoundTrip) {
  Box range{Point{0}, Point{15}};
  JoinVo vo = sp_->JoinQuery(range, user_ab_->roles());
  common::ByteWriter w;
  vo.Serialize(&w);
  common::ByteReader r(w.data());
  JoinVo back = JoinVo::DeserializeRaw(&r, 2);
  EXPECT_TRUE(VerifyOk(user_ab_->VerifyJoin(range, back, nullptr)));
  EXPECT_EQ(vo.SerializedSize(), w.size());
}

// A fixed-seed serial two-table join VO, pinned byte for byte: the join
// builder's entry order, relaxation randomness and wire layout cannot drift.
TEST_F(JoinTest, SerialTwoTableVoBytesArePinned) {
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, Domain{1, 4}, 777);
  GridTree r = owner.BuildAds(RRecords());
  GridTree s = owner.BuildAds(SRecords());
  Rng rng(2026);
  JoinVo vo = BuildJoinVo({&r, &s}, owner.keys().mvk, Box{Point{0}, Point{15}},
                          RoleSet{"RoleA"}, owner.keys().universe, &rng);
  common::ByteWriter w;
  vo.Serialize(&w);
  EXPECT_EQ(w.size(), 4878u);
  EXPECT_EQ(crypto::DigestToHex(crypto::Sha256::Hash(w.data().data(), w.size())),
            "1bcab8670393dd1f9b051bc679445f36230cc5224aa8bbd3ec0e0ceb9956b7ef");
}

// --- Pinned VO bytes: fixed seeds, byte for byte ---------------------------
//
// Each builder's entry order, relaxation randomness and wire layout are
// pinned by the SHA-256 of one fixed-seed VO: a 2-D range VO whose range
// crosses inaccessible nodes, and whole-domain kd-tree and duplicate VOs.

template <typename VoT>
std::pair<std::size_t, std::string> VoDigest(const VoT& vo) {
  common::ByteWriter w;
  vo.Serialize(&w);
  return {w.size(), crypto::DigestToHex(
                        crypto::Sha256::Hash(w.data().data(), w.size()))};
}

TEST(PinnedVoTest, CrossingTwoDimRangeVoBytesArePinned) {
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, Domain{2, 3}, 4711);
  std::vector<Record> records;
  for (std::uint32_t x = 0; x < 8; ++x) {
    for (std::uint32_t y = 0; y < 8; ++y) {
      if ((3 * x + y) % 4 != 0) continue;
      records.push_back(Record{Point{x, y}, "r" + std::to_string(8 * x + y),
                               Policy::Parse(x < 4 && y < 4 ? "RoleA"
                                             : (x + y) % 3 == 0
                                                 ? "RoleA | RoleB"
                                                 : "RoleB")});
    }
  }
  GridTree tree = owner.BuildAds(records);
  const Box range{Point{1, 2}, Point{6, 5}};
  const RoleSet roles{"RoleA"};
  Rng rng(2026);
  Vo vo = BuildRangeVo(tree, owner.keys().mvk, range, roles,
                       owner.keys().universe, &rng);
  std::size_t crossing = 0;
  for (const VoEntry& e : vo.entries) {
    if (!std::holds_alternative<ResultEntry>(e) &&
        !range.ContainsBox(EntryRegion(e))) {
      ++crossing;
    }
  }
  EXPECT_GT(crossing, 0u);
  VerifyContext ctx(owner.keys().mvk, owner.keys().domain, roles,
                    owner.keys().universe);
  ASSERT_TRUE(VerifyOk(VerifyRangeVo(ctx, range, vo, nullptr)));
  auto [size, hex] = VoDigest(vo);
  EXPECT_EQ(size, 8313u);
  EXPECT_EQ(hex,
            "b26e6e7cd0417a404e2f6c37cb6f6dbba933c23925cc10b38b17b1ceb6c53271");
}

TEST(PinnedVoTest, WholeDomainKdVoBytesArePinned) {
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, Domain{1, 4}, 4712);
  std::vector<Record> records = {
      Rec(1, "k1", "RoleA"),  Rec(2, "k2", "RoleB"),
      Rec(5, "k5", "RoleB"),  Rec(6, "k6", "RoleB"),
      Rec(9, "k9", "RoleA"),  Rec(12, "k12", "RoleA & RoleB"),
      Rec(14, "k14", "RoleB"),
  };
  KdTree tree = KdTree::Build(owner.keys().mvk, owner.signing_key(),
                              owner.keys().domain, records, owner.rng());
  Rng rng(2026);
  KdVo vo = BuildKdRangeVo(tree, owner.keys().mvk, Box{Point{0}, Point{15}},
                           RoleSet{"RoleA"}, owner.keys().universe, &rng);
  auto [size, hex] = VoDigest(vo);
  EXPECT_EQ(size, 3742u);
  EXPECT_EQ(hex,
            "e9e2a2d705053acd8d5a1bb19fa65ef380e232f21aff86feb437e35884a5f08a");
}

TEST(PinnedVoTest, WholeDomainDupVoBytesArePinned) {
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, Domain{1, 3}, 4713);
  std::vector<Record> records = {
      Rec(1, "a", "RoleA"), Rec(1, "b", "RoleB"), Rec(2, "c", "RoleB"),
      Rec(4, "d", "RoleA"), Rec(4, "e", "RoleA"), Rec(6, "f", "RoleB"),
  };
  DupGridTree tree = DupGridTree::Build(owner.keys().mvk, owner.signing_key(),
                                        owner.keys().domain, records,
                                        owner.rng());
  Rng rng(2026);
  DupVo vo = BuildDupRangeVo(tree, owner.keys().mvk, Box{Point{0}, Point{7}},
                             RoleSet{"RoleA"}, owner.keys().universe, &rng);
  auto [size, hex] = VoDigest(vo);
  EXPECT_EQ(size, 5592u);
  EXPECT_EQ(hex,
            "976ed58c7d52d23dd56ce6e377ada02a8c68bff5d6d3bf26986037057cb3b0bb");
}

TEST(PinnedVoTest, ContinuousRangeVoBytesArePinned) {
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, Domain{1, 4}, 4714);
  std::vector<ContinuousRecord> records = {
      {100, "c100", Policy::Parse("RoleA")},
      {200, "c200", Policy::Parse("RoleB")},
      {250, "c250", Policy::Parse("RoleA | RoleB")},
      {300, "c300", Policy::Parse("RoleA & RoleB")},
      {450, "c450", Policy::Parse("RoleA")},
  };
  ContinuousAds ads = ContinuousAds::Build(
      owner.keys().mvk, owner.signing_key(), records, owner.rng());
  Rng rng(2026);
  ContinuousVo vo = BuildContinuousRangeVo(ads, owner.keys().mvk, 50, 400,
                                           RoleSet{"RoleA"},
                                           owner.keys().universe, &rng);
  auto [size, hex] = VoDigest(vo);
  EXPECT_EQ(size, 6369u);
  EXPECT_EQ(hex,
            "4ab6b1e5125e8d808ca12fe4b864ea12cb0e9c48abc0f70d44353d64e3a4962c");
}

// The DO → SP update codec: a fixed-seed signed delta with an upsert, an
// overwrite and a delete, pinned byte for byte.
TEST(PinnedVoTest, SignedAdsUpdateBytesArePinned) {
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, Domain{1, 3}, 4715);
  GridTree tree = owner.BuildAds({Rec(1, "a", "RoleA"), Rec(3, "b", "RoleB"),
                                  Rec(6, "c", "RoleA | RoleB")});
  Rng rng(2026);
  std::vector<AdsUpdateOp> ops = {
      {AdsUpdateOp::Kind::kUpsert, Rec(2, "d", "RoleB")},
      {AdsUpdateOp::Kind::kUpsert, Rec(3, "b2", "RoleA & RoleB")},
      {AdsUpdateOp::Kind::kDelete, Rec(6, "", "RoleA")},
  };
  AdsDelta delta =
      tree.ApplyUpdates(owner.keys().mvk, owner.signing_key(), ops, &rng);
  auto update = SignAdsUpdate(owner.keys().mvk, owner.signing_key(),
                              std::move(delta), &rng);
  ASSERT_TRUE(update.has_value());
  auto [size, hex] = VoDigest(*update);
  EXPECT_EQ(size, 4792u);
  EXPECT_EQ(hex,
            "028293350f82f0d2ee5a89dcc02ba5c27b2954b794e51f256cd75b81090d767c");
}

// The join walks one node position across its tables, so it refuses tables
// on different key grids: different bits or different dims, with the odd
// table first, in the middle or last.
TEST_F(JoinTest, RejectsTablesOnDifferentGrids) {
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, Domain{1, 4}, 777);
  const SystemKeys& keys = owner.keys();
  GridTree r = owner.BuildAds(RRecords());
  GridTree s = owner.BuildAds(SRecords());
  GridTree wider = GridTree::Build(keys.mvk, owner.signing_key(), Domain{1, 5},
                                   SRecords(), owner.rng());
  GridTree plane = GridTree::Build(
      keys.mvk, owner.signing_key(), Domain{2, 4},
      {Record{Point{1, 1}, "p11", Policy::Parse("RoleA")}}, owner.rng());
  Rng rng(5);
  const Box range{Point{0}, Point{15}};
  for (const GridTree* odd : {&wider, &plane}) {
    for (const std::vector<const GridTree*>& trees :
         {std::vector<const GridTree*>{&r, odd},
          std::vector<const GridTree*>{odd, &r},
          std::vector<const GridTree*>{&r, &s, odd},
          std::vector<const GridTree*>{&r, odd, &s}}) {
      // discard-ok: the call must throw before it returns a VO.
      EXPECT_THROW((void)BuildJoinVo(trees, keys.mvk, range, RoleSet{"RoleA"},
                                     keys.universe, &rng),
                   std::invalid_argument)
          << trees.size() << " tables, dims " << odd->domain().dims;
    }
  }
}

// S key shifted *and* R value tampered on one tuple: the key check runs
// before any side's policy or signature, so the verdict names the key.
TEST_F(JoinTest, KeyMismatchOutranksTamperedValue) {
  Box range{Point{0}, Point{15}};
  JoinVo vo = sp_->JoinQuery(range, user_ab_->roles());
  ASSERT_GE(vo.tuples.size(), 2u);
  vo.tuples[1][1].key[0] += 1;
  vo.tuples[1][0].value += "-tampered";
  VerifyResult v = user_ab_->VerifyJoin(range, vo, nullptr);
  EXPECT_EQ(v.code, VerifyCode::kKeyMismatch) << v.ToString();
  EXPECT_EQ(v.entry_index, 1);
}

TEST_F(JoinTest, BasicJoinMatchesTreeJoin) {
  Box range{Point{0}, Point{15}};
  JoinVo tree_vo = sp_->JoinQuery(range, user_ab_->roles());
  JoinVo basic_vo = sp_->BasicJoinQuery(range, user_ab_->roles());
  std::vector<std::vector<Record>> r1, r2;
  ASSERT_TRUE(VerifyOk(user_ab_->VerifyJoin(range, tree_vo, &r1)));
  ASSERT_TRUE(VerifyOk(user_ab_->VerifyJoin(range, basic_vo, &r2)));
  EXPECT_EQ(r1.size(), r2.size());
  EXPECT_LE(tree_vo.SerializedSize(), basic_vo.SerializedSize());
}

class MultiDimTest : public ::testing::Test {};

TEST_F(MultiDimTest, TwoDimensionalRange) {
  Domain domain{2, 2};  // 4x4 grid
  DataOwner owner({"RoleA", "RoleB"}, domain, 99);
  std::vector<Record> records = {
      Record{Point{0, 0}, "a", Policy::Parse("RoleA")},
      Record{Point{1, 2}, "b", Policy::Parse("RoleB")},
      Record{Point{2, 1}, "c", Policy::Parse("RoleA & RoleB")},
      Record{Point{3, 3}, "d", Policy::Parse("RoleA | RoleB")},
  };
  ServiceProvider sp(owner.keys(), owner.BuildAds(records));
  User user(owner.keys(), owner.EnrollUser({"RoleA"}));

  Box range{Point{0, 0}, Point{2, 2}};
  Vo vo = sp.RangeQuery(range, user.roles());
  std::vector<Record> results;
  ASSERT_TRUE(VerifyOk(user.VerifyRange(range, vo, &results)));
  std::set<std::string> values;
  for (const auto& r : results) values.insert(r.value);
  EXPECT_EQ(values, (std::set<std::string>{"a"}));

  // Records b (RoleB) and c (A&B) are inside but inaccessible; d outside.
  Box range2{Point{0, 0}, Point{3, 3}};
  Vo vo2 = sp.RangeQuery(range2, user.roles());
  results.clear();
  ASSERT_TRUE(VerifyOk(user.VerifyRange(range2, vo2, &results)));
  values.clear();
  for (const auto& r : results) values.insert(r.value);
  EXPECT_EQ(values, (std::set<std::string>{"a", "d"}));
}

// The §8.2 parallel path: ADS construction and SP-side relaxation run on a
// thread pool. Results must be interchangeable with the serial path, and
// the test doubles as the TSan workload in scripts/check.sh.
TEST(ParallelPathTest, ThreadedBuildAndQueriesMatchSerial) {
  Domain domain{/*dims=*/1, /*bits=*/5};
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, domain, 777);
  std::vector<Record> records;
  for (std::uint32_t k = 0; k < 24; ++k) {
    records.push_back(Rec(k, "v" + std::to_string(k),
                          (k % 3 == 0) ? "RoleA" : "RoleA & RoleB"));
  }

  ThreadPool pool(4);
  ServiceProvider sp_par(owner.keys(), owner.BuildAds(records, &pool),
                         /*threads=*/4);
  User user(owner.keys(), owner.EnrollUser({"RoleA"}));

  Box range{Point{2}, Point{19}};
  std::vector<Record> results;
  ASSERT_TRUE(
      VerifyOk(user.VerifyRange(range, sp_par.RangeQuery(range, user.roles()),
                                &results)));
  std::set<std::string> got;
  for (const auto& r : results) got.insert(r.value);

  ServiceProvider sp_ser(owner.keys(), owner.BuildAds(records),
                         /*threads=*/1);
  results.clear();
  ASSERT_TRUE(
      VerifyOk(user.VerifyRange(range, sp_ser.RangeQuery(range, user.roles()),
                                &results)));
  std::set<std::string> want;
  for (const auto& r : results) want.insert(r.value);
  EXPECT_EQ(got, want);

  // Equality through the pool-backed SP as well.
  Record rec;
  bool accessible = false;
  ASSERT_TRUE(VerifyOk(user.VerifyEquality(
      Point{3}, sp_par.EqualityQuery(Point{3}, user.roles()), &rec,
      &accessible)));
  EXPECT_TRUE(accessible);
  EXPECT_EQ(rec.value, "v3");
}

// User-side fan-out: the same VO verified serially and over a pool must
// yield an identical VerifyResult (code, entry index, detail) and identical
// emitted records, both for valid and tampered VOs. Also part of the TSan
// workload in scripts/check.sh.
TEST(ParallelPathTest, ParallelVerifyMatchesSerialByteForByte) {
  Domain domain{/*dims=*/1, /*bits=*/5};
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, domain, 4321);
  std::vector<Record> records;
  for (std::uint32_t k = 0; k < 24; ++k) {
    records.push_back(Rec(k, "v" + std::to_string(k),
                          (k % 3 == 0) ? "RoleA" : "RoleA & RoleB"));
  }
  ServiceProvider sp(owner.keys(), owner.BuildAds(records));
  UserCredentials creds = owner.EnrollUser({"RoleA"});
  const SystemKeys& keys = owner.keys();

  Box range{Point{1}, Point{20}};
  Vo vo = sp.RangeQuery(range, creds.roles);
  ThreadPool pool(4);

  auto run = [&](const Vo& v, ThreadPool* p, std::vector<Record>* out) {
    VerifyContext ctx(keys.mvk, keys.domain, creds.roles, keys.universe);
    ctx.pool = p;
    return VerifyRangeVo(ctx, range, v, out);
  };
  auto same = [](const VerifyResult& a, const VerifyResult& b) {
    return a.code == b.code && a.entry_index == b.entry_index &&
           a.detail == b.detail;
  };
  auto same_records = [](const std::vector<Record>& a,
                         const std::vector<Record>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].key != b[i].key || a[i].value != b[i].value) return false;
    }
    return true;
  };

  std::vector<Record> serial_out, pooled_out;
  VerifyResult serial = run(vo, nullptr, &serial_out);
  VerifyResult pooled = run(vo, &pool, &pooled_out);
  EXPECT_TRUE(serial.ok()) << serial.ToString();
  EXPECT_TRUE(same(serial, pooled))
      << serial.ToString() << " vs " << pooled.ToString();
  EXPECT_TRUE(same_records(serial_out, pooled_out));
  EXPECT_FALSE(serial_out.empty());

  // Tamper with one accessible record's value: the APP signature check for
  // that entry fails, and both paths must report the same entry with the
  // same partial results.
  Vo bad = vo;
  for (auto& entry : bad.entries) {
    if (auto* res = std::get_if<ResultEntry>(&entry)) {
      res->value += "-tampered";
      break;
    }
  }
  serial_out.clear();
  pooled_out.clear();
  VerifyResult serial_bad = run(bad, nullptr, &serial_out);
  VerifyResult pooled_bad = run(bad, &pool, &pooled_out);
  EXPECT_FALSE(serial_bad.ok());
  EXPECT_EQ(serial_bad.code, VerifyCode::kBadSignature);
  EXPECT_TRUE(same(serial_bad, pooled_bad))
      << serial_bad.ToString() << " vs " << pooled_bad.ToString();
  EXPECT_TRUE(same_records(serial_out, pooled_out));

  // The User facade with threads > 1 agrees with the serial facade.
  User user_par(owner.keys(), creds, /*threads=*/4);
  User user_ser(owner.keys(), creds);
  std::vector<Record> par_results, ser_results;
  ASSERT_TRUE(VerifyOk(user_par.VerifyRange(range, vo, &par_results)));
  ASSERT_TRUE(VerifyOk(user_ser.VerifyRange(range, vo, &ser_results)));
  EXPECT_TRUE(same_records(par_results, ser_results));
  EXPECT_FALSE(user_par.VerifyRange(range, bad, nullptr));
}

// Join verification over a pool: diagnostics and emitted pairs must match
// the serial path, including after tampering with one side of a pair.
TEST(ParallelPathTest, ParallelJoinVerifyMatchesSerial) {
  Domain domain{/*dims=*/1, /*bits=*/4};
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, domain, 99);
  std::vector<Record> r_records, s_records;
  for (std::uint32_t k = 0; k < 12; ++k) {
    r_records.push_back(Rec(k, "r" + std::to_string(k),
                            (k % 4 == 1) ? "RoleB" : "RoleA"));
    s_records.push_back(Rec(k, "s" + std::to_string(k), "RoleA"));
  }
  ServiceProvider sp(owner.keys(), owner.BuildAds(r_records));
  sp.AttachJoinTable(owner.BuildAds(s_records));
  UserCredentials creds = owner.EnrollUser({"RoleA"});
  const SystemKeys& keys = owner.keys();

  Box range{Point{0}, Point{11}};
  JoinVo vo = sp.JoinQuery(range, creds.roles);
  ThreadPool pool(4);

  auto run = [&](const JoinVo& v, ThreadPool* p,
                 std::vector<std::vector<Record>>* out) {
    VerifyContext ctx(keys.mvk, keys.domain, creds.roles, keys.universe);
    ctx.pool = p;
    return VerifyJoinVo(ctx, range, 2, v, out);
  };

  std::vector<std::vector<Record>> serial_out, pooled_out;
  VerifyResult serial = run(vo, nullptr, &serial_out);
  VerifyResult pooled = run(vo, &pool, &pooled_out);
  EXPECT_TRUE(serial.ok()) << serial.ToString();
  EXPECT_EQ(serial.code, pooled.code);
  EXPECT_EQ(serial.entry_index, pooled.entry_index);
  EXPECT_EQ(serial.detail, pooled.detail);
  ASSERT_EQ(serial_out.size(), pooled_out.size());
  EXPECT_FALSE(serial_out.empty());

  ASSERT_FALSE(vo.tuples.empty());
  JoinVo bad = vo;
  bad.tuples.back()[1].value += "-tampered";
  serial_out.clear();
  pooled_out.clear();
  VerifyResult serial_bad = run(bad, nullptr, &serial_out);
  VerifyResult pooled_bad = run(bad, &pool, &pooled_out);
  EXPECT_FALSE(serial_bad.ok());
  EXPECT_EQ(serial_bad.code, VerifyCode::kBadSignature);
  EXPECT_EQ(serial_bad.code, pooled_bad.code);
  EXPECT_EQ(serial_bad.entry_index, pooled_bad.entry_index);
  EXPECT_EQ(serial_bad.detail, pooled_bad.detail);
  EXPECT_EQ(serial_out.size(), pooled_out.size());
}

// --- Whole-VO batched verification vs the retained per-signature path ---

bool SameRecords(const std::vector<Record>& a, const std::vector<Record>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].value != b[i].value) return false;
  }
  return true;
}

// The default verify path now folds every ABS check of a VO into one batch
// (core/parallel_verify.h). It must be observationally identical to the
// retained per-signature path — same VerifyResult (code, entry index,
// detail) and same emitted records — on valid AND tampered VOs, for every
// VO shape. ScopedPerSignatureVerify forces the old path for comparison.
TEST(ParallelPathTest, BatchedMatchesPerSignatureByteForByte) {
  Domain domain{/*dims=*/1, /*bits=*/5};
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, domain, 31337);
  std::vector<Record> records;
  for (std::uint32_t k = 0; k < 20; ++k) {
    records.push_back(Rec(k, "v" + std::to_string(k),
                          (k % 3 == 0) ? "RoleA" : "RoleA & RoleB"));
  }
  ServiceProvider sp(owner.keys(), owner.BuildAds(records));
  UserCredentials creds = owner.EnrollUser({"RoleA"});
  const SystemKeys& keys = owner.keys();
  const VerifyContext ctx(keys.mvk, keys.domain, creds.roles, keys.universe);
  Box range{Point{1}, Point{18}};

  auto run_range = [&](const Vo& v, std::vector<Record>* out,
                       bool per_sig) -> VerifyResult {
    if (per_sig) {
      ScopedPerSignatureVerify guard;
      return VerifyRangeVo(ctx, range, v, out);
    }
    return VerifyRangeVo(ctx, range, v, out);
  };

  // Range: valid, then one tampered ResultEntry (first / middle / last).
  Vo vo = sp.RangeQuery(range, creds.roles);
  std::vector<std::size_t> result_positions;
  for (std::size_t i = 0; i < vo.entries.size(); ++i) {
    if (std::holds_alternative<ResultEntry>(vo.entries[i])) {
      result_positions.push_back(i);
    }
  }
  ASSERT_GE(result_positions.size(), 3u);

  std::vector<Record> batched_out, per_sig_out;
  VerifyResult batched = run_range(vo, &batched_out, false);
  VerifyResult sequential = run_range(vo, &per_sig_out, true);
  EXPECT_TRUE(batched.ok()) << batched.ToString();
  EXPECT_TRUE(SameResult(batched, sequential))
      << batched.ToString() << " vs " << sequential.ToString();
  EXPECT_TRUE(SameRecords(batched_out, per_sig_out));
  EXPECT_FALSE(batched_out.empty());

  for (std::size_t pos : {result_positions.front(),
                          result_positions[result_positions.size() / 2],
                          result_positions.back()}) {
    Vo bad = vo;
    std::get<ResultEntry>(bad.entries[pos]).value += "-tampered";
    batched_out.clear();
    per_sig_out.clear();
    VerifyResult b = run_range(bad, &batched_out, false);
    VerifyResult s = run_range(bad, &per_sig_out, true);
    EXPECT_FALSE(b.ok());
    EXPECT_EQ(b.code, VerifyCode::kBadSignature);
    EXPECT_TRUE(SameResult(b, s))
        << "entry " << pos << ": " << b.ToString() << " vs " << s.ToString();
    EXPECT_TRUE(SameRecords(batched_out, per_sig_out)) << "entry " << pos;
  }

  // Equality: accessible record, valid and tampered.
  Vo evo = sp.EqualityQuery(Point{3}, creds.roles);
  Record brec, srec;
  bool bacc = false, sacc = false;
  VerifyResult be, se;
  {
    be = VerifyEqualityVo(ctx, Point{3}, evo, &brec, &bacc);
    ScopedPerSignatureVerify guard;
    se = VerifyEqualityVo(ctx, Point{3}, evo, &srec, &sacc);
  }
  EXPECT_TRUE(be.ok()) << be.ToString();
  EXPECT_TRUE(SameResult(be, se));
  EXPECT_EQ(bacc, sacc);
  EXPECT_EQ(brec.value, srec.value);
  Vo ebad = evo;
  for (auto& entry : ebad.entries) {
    if (auto* res = std::get_if<ResultEntry>(&entry)) res->value += "x";
  }
  {
    be = VerifyEqualityVo(ctx, Point{3}, ebad, nullptr, &bacc);
    ScopedPerSignatureVerify guard;
    se = VerifyEqualityVo(ctx, Point{3}, ebad, nullptr, &sacc);
  }
  EXPECT_FALSE(be.ok());
  EXPECT_TRUE(SameResult(be, se))
      << be.ToString() << " vs " << se.ToString();

  // Join: valid and tampered pair.
  ServiceProvider spj(owner.keys(), owner.BuildAds(records));
  spj.AttachJoinTable(owner.BuildAds(records));
  JoinVo jvo = spj.JoinQuery(range, creds.roles);
  auto run_join = [&](const JoinVo& v, std::vector<std::vector<Record>>* out,
                      bool per_sig) -> VerifyResult {
    if (per_sig) {
      ScopedPerSignatureVerify guard;
      return VerifyJoinVo(ctx, range, 2, v, out);
    }
    return VerifyJoinVo(ctx, range, 2, v, out);
  };
  std::vector<std::vector<Record>> bjout, sjout;
  VerifyResult bj = run_join(jvo, &bjout, false);
  VerifyResult sj = run_join(jvo, &sjout, true);
  EXPECT_TRUE(bj.ok()) << bj.ToString();
  EXPECT_TRUE(SameResult(bj, sj));
  EXPECT_EQ(bjout.size(), sjout.size());
  ASSERT_FALSE(jvo.tuples.empty());
  JoinVo jbad = jvo;
  jbad.tuples.front()[0].value += "-tampered";
  bjout.clear();
  sjout.clear();
  bj = run_join(jbad, &bjout, false);
  sj = run_join(jbad, &sjout, true);
  EXPECT_FALSE(bj.ok());
  EXPECT_TRUE(SameResult(bj, sj))
      << bj.ToString() << " vs " << sj.ToString();
  EXPECT_EQ(bjout.size(), sjout.size());
}

// Join VOs built with the relaxations fanned out over 4 threads verify to
// the same row set as serial builds, for 2- and 3-table joins.
TEST(ParallelPathTest, PooledJoinMatchesSerial) {
  Domain domain{/*dims=*/1, /*bits=*/4};
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, domain, 1234);
  std::vector<GridTree> trees;
  for (std::uint32_t t = 0; t < 3; ++t) {
    std::vector<Record> records;
    for (std::uint32_t k = 0; k < 16; ++k) {
      if ((k + t) % 5 == 0) continue;
      records.push_back(Rec(k, "t" + std::to_string(t) + "_" + std::to_string(k),
                            (k + 2 * t) % 7 == 0 ? "RoleB" : "RoleA"));
    }
    trees.push_back(owner.BuildAds(records));
  }
  const SystemKeys& keys = owner.keys();
  RoleSet roles = {"RoleA"};
  VerifyContext ctx(keys.mvk, keys.domain, roles, keys.universe);
  Box range{Point{1}, Point{14}};
  ThreadPool pool(4);
  Rng rng(77);
  for (std::size_t k : {2u, 3u}) {
    std::vector<const GridTree*> ptrs;
    for (std::size_t i = 0; i < k; ++i) ptrs.push_back(&trees[i]);
    JoinVo serial =
        BuildJoinVo(ptrs, keys.mvk, range, roles, keys.universe, &rng);
    JoinVo pooled =
        BuildJoinVo(ptrs, keys.mvk, range, roles, keys.universe, &rng, &pool);
    std::vector<std::vector<Record>> serial_rows, pooled_rows;
    ASSERT_TRUE(VerifyOk(VerifyJoinVo(ctx, range, k, serial, &serial_rows)));
    ASSERT_TRUE(VerifyOk(VerifyJoinVo(ctx, range, k, pooled, &pooled_rows)));
    EXPECT_FALSE(serial_rows.empty()) << k << " tables";
    ASSERT_EQ(serial_rows.size(), pooled_rows.size()) << k << " tables";
    for (std::size_t i = 0; i < serial_rows.size(); ++i) {
      EXPECT_TRUE(SameRecords(serial_rows[i], pooled_rows[i]))
          << k << " tables, row " << i;
    }
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(serial.aps[i].size(), pooled.aps[i].size());
    }
  }
}

// Same equivalence for the kd-tree verifier, which batches through the same
// SigBatch.
TEST(ParallelPathTest, KdBatchedMatchesPerSignature) {
  Rng rng(808);
  abs::MasterKey msk;
  abs::VerifyKey mvk;
  abs::Abs::Setup(&rng, &msk, &mvk);
  RoleSet universe = {"RoleA", "RoleB", "RoleC"};
  RoleSet all = universe;
  all.insert(kPseudoRole);
  abs::SigningKey sk = abs::Abs::KeyGen(msk, all, &rng);

  Domain domain{1, 5};
  std::vector<Record> records;
  for (std::uint32_t k = 0; k < 12; ++k) {
    records.push_back(Rec(2 * k + 1, "v" + std::to_string(k),
                          (k % 2 == 0) ? "RoleA" : "RoleB"));
  }
  KdTree tree = KdTree::Build(mvk, sk, domain, records, &rng);
  RoleSet user = {"RoleA"};
  Box range{Point{2}, Point{27}};
  KdVo vo = BuildKdRangeVo(tree, mvk, range, user, universe, &rng);
  const VerifyContext ctx(mvk, domain, user, universe);

  auto run = [&](const KdVo& v, std::vector<Record>* out,
                 bool per_sig) -> VerifyResult {
    if (per_sig) {
      ScopedPerSignatureVerify guard;
      return VerifyKdRangeVo(ctx, range, v, out);
    }
    return VerifyKdRangeVo(ctx, range, v, out);
  };

  std::vector<Record> bout, sout;
  VerifyResult b = run(vo, &bout, false);
  VerifyResult s = run(vo, &sout, true);
  EXPECT_TRUE(b.ok()) << b.ToString();
  EXPECT_TRUE(SameResult(b, s)) << b.ToString() << " vs " << s.ToString();
  EXPECT_TRUE(SameRecords(bout, sout));
  EXPECT_FALSE(bout.empty());

  ASSERT_FALSE(vo.results.empty());
  KdVo bad = vo;
  bad.results[vo.results.size() / 2].value += "-tampered";
  bout.clear();
  sout.clear();
  b = run(bad, &bout, false);
  s = run(bad, &sout, true);
  EXPECT_FALSE(b.ok());
  EXPECT_TRUE(SameResult(b, s)) << b.ToString() << " vs " << s.ToString();
  EXPECT_TRUE(SameRecords(bout, sout));
}

// Bisect blame recovery: when the whole-VO batch fails, SigBatch bisects to
// the LOWEST failing job, so blame and partial-record emission must equal
// the sequential verifier's with 1, 2, and all signatures tampered.
TEST(ParallelPathTest, BisectRecoversLowestFailingIndex) {
  Domain domain{/*dims=*/1, /*bits=*/5};
  DataOwner owner(RoleSet{"RoleA", "RoleB"}, domain, 60606);
  std::vector<Record> records;
  for (std::uint32_t k = 0; k < 16; ++k) {
    records.push_back(Rec(k, "v" + std::to_string(k),
                          (k % 2 == 0) ? "RoleA" : "RoleA & RoleB"));
  }
  ServiceProvider sp(owner.keys(), owner.BuildAds(records));
  UserCredentials creds = owner.EnrollUser({"RoleA"});
  const SystemKeys& keys = owner.keys();
  const VerifyContext ctx(keys.mvk, keys.domain, creds.roles, keys.universe);
  Box range{Point{0}, Point{15}};
  Vo vo = sp.RangeQuery(range, creds.roles);

  std::vector<std::size_t> result_positions;
  for (std::size_t i = 0; i < vo.entries.size(); ++i) {
    if (std::holds_alternative<ResultEntry>(vo.entries[i])) {
      result_positions.push_back(i);
    }
  }
  ASSERT_GE(result_positions.size(), 3u);

  auto run = [&](const Vo& v, std::vector<Record>* out,
                 bool per_sig) -> VerifyResult {
    if (per_sig) {
      ScopedPerSignatureVerify guard;
      return VerifyRangeVo(ctx, range, v, out);
    }
    return VerifyRangeVo(ctx, range, v, out);
  };

  auto check_case = [&](const Vo& bad, const char* what) {
    std::vector<Record> bout, sout;
    VerifyResult b = run(bad, &bout, false);
    VerifyResult s = run(bad, &sout, true);
    EXPECT_FALSE(b.ok()) << what;
    EXPECT_TRUE(SameResult(b, s))
        << what << ": " << b.ToString() << " vs " << s.ToString();
    EXPECT_TRUE(SameRecords(bout, sout)) << what;
  };

  // One tampered signature, somewhere in the middle.
  Vo one = vo;
  std::get<ResultEntry>(one.entries[result_positions[1]]).value += "x";
  check_case(one, "one tampered");

  // Two tampered signatures: blame must land on the lower one.
  Vo two = vo;
  std::get<ResultEntry>(two.entries[result_positions[1]]).value += "x";
  std::get<ResultEntry>(two.entries[result_positions.back()]).value += "x";
  check_case(two, "two tampered");

  // Every accessible record tampered: blame is the first job, no records.
  Vo all = vo;
  for (auto& entry : all.entries) {
    if (auto* res = std::get_if<ResultEntry>(&entry)) res->value += "x";
  }
  check_case(all, "all tampered");
}

// --- Crossing boxes: one APS per maximal inaccessible subtree --------------

// The rule the builders followed before crossing boxes, as a plain
// traversal with no crypto: a node that only partly overlaps the range is
// always split, and only inaccessible nodes inside the range are covers.
// `accessible(id)` says whether the user may access a node. Returns the
// result leaves and the covers, in BFS order.
template <typename Tree>
struct ContainmentCover {
  std::vector<typename Tree::NodeId> results, covers;
};

template <typename Tree, typename AccessibleFn>
ContainmentCover<Tree> ContainmentRuleCover(const Tree& tree, const Box& range,
                                            AccessibleFn accessible) {
  ContainmentCover<Tree> out;
  std::deque<typename Tree::NodeId> queue{tree.Root()};
  while (!queue.empty()) {
    typename Tree::NodeId id = queue.front();
    queue.pop_front();
    const auto& node = tree.GetNode(id);
    if (!node.box.Intersects(range)) continue;
    bool split = !range.ContainsBox(node.box) || accessible(id);
    if (node.is_leaf && split) {
      out.results.push_back(id);
    } else if (split) {
      for (typename Tree::NodeId c : tree.Children(id)) queue.push_back(c);
    } else {
      out.covers.push_back(id);
    }
  }
  return out;
}

// Every non-root node's box → its parent.
template <typename Tree>
std::map<std::pair<Point, Point>, typename Tree::NodeId> ParentsByBox(
    const Tree& tree) {
  std::map<std::pair<Point, Point>, typename Tree::NodeId> parent_of;
  std::deque<typename Tree::NodeId> queue{tree.Root()};
  while (!queue.empty()) {
    typename Tree::NodeId id = queue.front();
    queue.pop_front();
    for (typename Tree::NodeId c : tree.Children(id)) {
      const Box& b = tree.GetNode(c).box;
      parent_of[{b.lo, b.hi}] = id;
      queue.push_back(c);
    }
  }
  return parent_of;
}

std::size_t Relaxations(const Vo& vo) {
  return static_cast<std::size_t>(
      std::count_if(vo.entries.begin(), vo.entries.end(), [](const auto& e) {
        return !std::holds_alternative<ResultEntry>(e);
      }));
}

std::vector<std::string> SortedValues(const std::vector<Record>& rs) {
  std::vector<std::string> out;
  for (const Record& r : rs) out.push_back(r.value);
  std::sort(out.begin(), out.end());
  return out;
}

// A TPC-H Lineitem deployment on an 8³ grid, the benches' policy mix.
struct TpchDeployment {
  tpch::PolicyGen policies{10, 10, 3, 2, 20180610};
  Domain domain{3, 3};
  DataOwner owner{policies.universe(), domain, 20180610};
  std::unique_ptr<ServiceProvider> sp;

  TpchDeployment() {
    tpch::TpchGen gen(0.1, 20180610);
    ThreadPool pool(4);
    sp = std::make_unique<ServiceProvider>(
        owner.keys(),
        owner.BuildAds(tpch::LineitemRecords(gen.Lineitem(), domain,
                                             policies.policies()),
                       &pool));
  }
};

TpchDeployment& Tpch() {
  static TpchDeployment* d = new TpchDeployment;
  return *d;
}

// Seeded Q6 ranges at 20% and 50% access and 1% and 8% selectivity. For
// each: the crossing-rule VO verifies to the records of the Basic
// (per-cell equality) VO; a VO under the containment rule still verifies,
// to the same records; the crossing rule never relaxes more nodes; and every
// APS entry is maximal: its node is the root or its parent is accessible.
TEST(CrossingCoverTest, MatchesBasicAndContainmentRule) {
  TpchDeployment& d = Tpch();
  const SystemKeys& keys = d.owner.keys();
  const GridTree& tree = d.sp->tree();
  auto parent_of = ParentsByBox(tree);

  Rng rng(5150);
  Rng qrng(6);
  std::size_t crossing_total = 0, containment_total = 0;
  for (double access : {0.2, 0.5}) {
    RoleSet roles = d.policies.RolesForAccessFraction(access);
    User user(keys, d.owner.EnrollUser(roles));
    for (double sel : {0.01, 0.08}) {
      for (int q = 0; q < 5; ++q) {
        Box range = tpch::RandomRangeQuery(keys.domain, sel, &qrng);
        std::string what = "access " + std::to_string(access) + " sel " +
                           std::to_string(sel) + " query " +
                           std::to_string(q);
        Vo vo = d.sp->RangeQuery(range, roles);
        std::vector<Record> got, basic;
        ASSERT_TRUE(VerifyOk(user.VerifyRange(range, vo, &got))) << what;
        ASSERT_TRUE(VerifyOk(user.VerifyRange(
            range, d.sp->BasicRangeQuery(range, roles), &basic)))
            << what;
        EXPECT_EQ(SortedValues(got), SortedValues(basic)) << what;

        auto old_rule =
            ContainmentRuleCover(tree, range, [&](GridTree::NodeId id) {
              return tree.GetNode(id).policy.Evaluate(roles);
            });
        Vo old_vo;
        old_vo.stamp = tree.stamp();
        for (GridTree::NodeId id : old_rule.results) {
          const GridTree::Node& n = tree.GetNode(id);
          old_vo.entries.push_back(ResultEntry{n.record.key, n.record.value,
                                               n.record.policy, n.sig});
        }
        std::vector<const GridTree::Node*> old_covers;
        for (GridTree::NodeId id : old_rule.covers) {
          old_covers.push_back(&tree.GetNode(id));
        }
        for (VoEntry& e : RelaxNodes(old_covers, keys.mvk,
                                     SuperPolicyRoles(keys.universe, roles),
                                     &rng, nullptr)) {
          old_vo.entries.push_back(std::move(e));
        }
        std::vector<Record> old_got;
        ASSERT_TRUE(VerifyOk(user.VerifyRange(range, old_vo, &old_got)))
            << what;
        EXPECT_EQ(SortedValues(old_got), SortedValues(basic)) << what;

        EXPECT_LE(Relaxations(vo), old_rule.covers.size()) << what;
        crossing_total += Relaxations(vo);
        containment_total += old_rule.covers.size();

        for (const VoEntry& e : vo.entries) {
          if (std::holds_alternative<ResultEntry>(e)) continue;
          Box b = EntryRegion(e);
          auto it = parent_of.find({b.lo, b.hi});
          if (it == parent_of.end()) {
            EXPECT_TRUE(b == tree.GetNode(tree.Root()).box) << what;
            continue;
          }
          EXPECT_TRUE(tree.GetNode(it->second).policy.Evaluate(roles))
              << what << ": an APS entry's parent is inaccessible";
        }
      }
    }
  }
  // The crossing rule must actually merge boundary boxes on this data.
  EXPECT_LT(crossing_total, containment_total)
      << crossing_total << " vs " << containment_total;
}

// The crossing-rule build with its relaxations on 1, 2 and 4 threads yields
// the same entry regions in the same order as the serial build, and each
// verifies to the serial records. Part of the TSan workload in
// scripts/check.sh.
TEST(ParallelPathTest, PooledCrossingBuildMatchesSerial) {
  TpchDeployment& d = Tpch();
  const SystemKeys& keys = d.owner.keys();
  RoleSet roles = d.policies.RolesForAccessFraction(0.2);
  VerifyContext ctx(keys.mvk, keys.domain, roles, keys.universe);
  Rng rng(616);
  Rng qrng(7);
  Box range = tpch::RandomRangeQuery(keys.domain, 0.08, &qrng);
  Vo serial = BuildRangeVo(d.sp->tree(), keys.mvk, range, roles,
                           keys.universe, &rng);
  std::vector<Record> serial_out;
  ASSERT_TRUE(VerifyOk(VerifyRangeVo(ctx, range, serial, &serial_out)));
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    Vo pooled = BuildRangeVo(d.sp->tree(), keys.mvk, range, roles,
                             keys.universe, &rng, &pool);
    ASSERT_EQ(pooled.entries.size(), serial.entries.size()) << threads;
    for (std::size_t i = 0; i < serial.entries.size(); ++i) {
      EXPECT_TRUE(EntryRegion(pooled.entries[i]) ==
                  EntryRegion(serial.entries[i]))
          << threads << " threads, entry " << i;
    }
    std::vector<Record> pooled_out;
    ASSERT_TRUE(VerifyOk(VerifyRangeVo(ctx, range, pooled, &pooled_out)))
        << threads;
    EXPECT_TRUE(SameRecords(pooled_out, serial_out)) << threads;
  }
}

// Three tables on the Fig 11 key grid (1-D, 256 order keys): Lineitem and
// Orders by order key, and Orders again under rotated policies.
struct JoinDeployment {
  tpch::PolicyGen policies{10, 10, 3, 2, 20180610};
  Domain domain{1, 8};
  DataOwner owner{policies.universe(), domain, 20180610};
  std::vector<GridTree> trees;

  JoinDeployment() {
    tpch::TpchGen gen(0.1, 20180610);
    ThreadPool pool(4);
    std::vector<Policy> rotated = policies.policies();
    std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
    trees.push_back(owner.BuildAds(
        tpch::LineitemByOrderKey(gen.Lineitem(), domain, policies.policies()),
        &pool));
    trees.push_back(owner.BuildAds(
        tpch::OrdersByOrderKey(gen.Orders(), domain, policies.policies()),
        &pool));
    trees.push_back(owner.BuildAds(
        tpch::OrdersByOrderKey(gen.Orders(), domain, rotated), &pool));
  }

  std::vector<const GridTree*> First(std::size_t k) const {
    std::vector<const GridTree*> out;
    for (std::size_t i = 0; i < k; ++i) out.push_back(&trees[i]);
    return out;
  }
};

JoinDeployment& Joins() {
  static JoinDeployment* d = new JoinDeployment;
  return *d;
}

// One "v1|v2|…" string per join row, sorted.
std::vector<std::string> SortedRows(
    const std::vector<std::vector<Record>>& rows) {
  std::vector<std::string> out;
  for (const auto& row : rows) {
    std::string s;
    for (const Record& r : row) s += r.value + "|";
    out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The plaintext join over a 1-D range: every key whose leaf is accessible in
// each table.
std::vector<std::string> PlainJoin(const std::vector<const GridTree*>& trees,
                                   const Box& range, const RoleSet& roles) {
  std::vector<std::vector<Record>> rows;
  for (std::uint32_t key = range.lo[0]; key <= range.hi[0]; ++key) {
    std::vector<Record> row;
    for (const GridTree* t : trees) {
      const GridTree::Node& leaf = t->GetNode(t->LeafAt(Point{key}));
      if (!leaf.policy.Evaluate(roles)) break;
      row.push_back(leaf.record);
    }
    if (row.size() == trees.size()) rows.push_back(std::move(row));
  }
  return SortedRows(rows);
}

// The join builder follows the crossing rule. Seeded ranges at 20% and 50%
// access and 1% and 8% selectivity, 2- and 3-table joins: the VO verifies to
// the plaintext join (and, for two tables, to the Basic VO's rows); it never
// relaxes more nodes than the containment rule, and fewer in total; and
// every APS entry is maximal: its node is the root or its parent is
// accessible in every table.
TEST(CrossingCoverTest, JoinMatchesBasicAndContainmentRule) {
  JoinDeployment& d = Joins();
  const SystemKeys& keys = d.owner.keys();
  ServiceProvider sp(keys, d.trees[0]);
  sp.AttachJoinTable(d.trees[1]);
  auto parent_of = ParentsByBox(d.trees[0]);
  Rng rng(5151);
  Rng qrng(8);
  std::size_t crossing_total = 0, containment_total = 0;
  for (double access : {0.2, 0.5}) {
    RoleSet roles = d.policies.RolesForAccessFraction(access);
    VerifyContext ctx(keys.mvk, keys.domain, roles, keys.universe);
    for (double sel : {0.01, 0.08}) {
      for (int q = 0; q < 5; ++q) {
        Box range = tpch::RandomRangeQuery(keys.domain, sel, &qrng);
        for (std::size_t k : {2u, 3u}) {
          std::string what = "access " + std::to_string(access) + " sel " +
                             std::to_string(sel) + " query " +
                             std::to_string(q) + ", " + std::to_string(k) +
                             " tables";
          std::vector<const GridTree*> trees = d.First(k);
          JoinVo vo = BuildJoinVo(trees, keys.mvk, range, roles,
                                  keys.universe, &rng);
          std::vector<std::vector<Record>> rows;
          ASSERT_TRUE(VerifyOk(VerifyJoinVo(ctx, range, k, vo, &rows)))
              << what;
          EXPECT_EQ(SortedRows(rows), PlainJoin(trees, range, roles)) << what;
          if (k == 2) {
            std::vector<std::vector<Record>> basic_rows;
            ASSERT_TRUE(VerifyOk(VerifyJoinVo(
                ctx, range, k, sp.BasicJoinQuery(range, roles), &basic_rows)))
                << what;
            EXPECT_EQ(SortedRows(rows), SortedRows(basic_rows)) << what;
          }

          auto accessible = [&](GridTree::NodeId id) {
            for (const GridTree* t : trees) {
              if (!t->GetNode(id).policy.Evaluate(roles)) return false;
            }
            return true;
          };
          std::size_t relaxed = 0;
          for (const auto& side : vo.aps) relaxed += side.size();
          std::size_t old_covers =
              ContainmentRuleCover(*trees[0], range, accessible).covers.size();
          EXPECT_LE(relaxed, old_covers) << what;
          crossing_total += relaxed;
          containment_total += old_covers;

          for (const auto& side : vo.aps) {
            for (const VoEntry& e : side) {
              Box b = EntryRegion(e);
              auto it = parent_of.find({b.lo, b.hi});
              if (it == parent_of.end()) {
                EXPECT_TRUE(b == keys.domain.FullBox()) << what;
                continue;
              }
              EXPECT_TRUE(accessible(it->second))
                  << what << ": an APS entry's parent is blocked";
            }
          }
        }
      }
    }
  }
  EXPECT_LT(crossing_total, containment_total)
      << crossing_total << " vs " << containment_total;
}

// A Fig 15 duplicate deployment: keys 0..31, up to three records per key
// under varying policies, some keys absent.
struct DupDeployment {
  tpch::PolicyGen policies{10, 10, 3, 2, 20180610};
  Domain domain{1, 5};
  DataOwner owner{policies.universe(), domain, 20180611};
  std::vector<Record> records;
  std::optional<DupGridTree> tree;

  DupDeployment() {
    Rng data_rng(20180610);
    for (std::uint32_t key = 0; key < domain.SideLength(); ++key) {
      if (data_rng.NextU64() % 4 == 0) continue;
      int dups = 1 + static_cast<int>(data_rng.NextU64() % 3);
      for (int i = 0; i < dups; ++i) {
        records.push_back(Record{
            Point{key}, "v" + std::to_string(key) + "#" + std::to_string(i),
            policies.policies()[data_rng.NextU64() %
                                policies.policies().size()]});
      }
    }
    tree = DupGridTree::Build(owner.keys().mvk, owner.signing_key(), domain,
                              records, owner.rng());
  }
};

// The duplicate builder follows the crossing rule. Seeded ranges at 20% and
// 50% access and 1% and 8% selectivity: the VO verifies to the plaintext
// filter of the records; it never makes more ABS.Relax calls than the
// containment rule; and every relaxed node is maximal: a box's node, or the
// leaf of a wholly inaccessible group, is the root or has an accessible
// parent.
TEST(CrossingCoverTest, DupMatchesPlaintextAndContainmentRule) {
  DupDeployment d;
  const DupGridTree& tree = *d.tree;
  const SystemKeys& keys = d.owner.keys();
  auto parent_of = ParentsByBox(tree);
  Rng rng(5152);
  Rng qrng(9);
  std::size_t crossing_total = 0, containment_total = 0;
  for (double access : {0.2, 0.5}) {
    RoleSet roles = d.policies.RolesForAccessFraction(access);
    VerifyContext ctx(keys.mvk, keys.domain, roles, keys.universe);
    auto accessible = [&](DupGridTree::NodeId id) {
      return tree.GetNode(id).policy.Evaluate(roles);
    };
    for (double sel : {0.01, 0.08}) {
      for (int q = 0; q < 5; ++q) {
        Box range = tpch::RandomRangeQuery(keys.domain, sel, &qrng);
        std::string what = "access " + std::to_string(access) + " sel " +
                           std::to_string(sel) + " query " +
                           std::to_string(q);
        DupVo vo = BuildDupRangeVo(tree, keys.mvk, range, roles,
                                   keys.universe, &rng);
        std::vector<Record> got, plain;
        ASSERT_TRUE(VerifyOk(VerifyDupRangeVo(ctx, range, vo, &got))) << what;
        for (const Record& r : d.records) {
          if (range.Contains(r.key) && r.policy.Evaluate(roles)) {
            plain.push_back(r);
          }
        }
        EXPECT_EQ(SortedValues(got), SortedValues(plain)) << what;

        // One Relax per box and per inaccessible group member.
        auto old_rule = ContainmentRuleCover(tree, range, accessible);
        std::size_t old_relaxed = 0;
        for (DupGridTree::NodeId id : old_rule.covers) {
          const DupGridTree::Node& n = tree.GetNode(id);
          old_relaxed += n.is_leaf ? n.dups.size() : 1;
        }
        for (DupGridTree::NodeId id : old_rule.results) {
          for (const DupEntry& e : tree.GetNode(id).dups) {
            old_relaxed += e.record.policy.Evaluate(roles) ? 0 : 1;
          }
        }
        std::size_t relaxed = vo.boxes.size() + vo.inaccessible.size();
        EXPECT_LE(relaxed, old_relaxed) << what;
        crossing_total += relaxed;
        containment_total += old_relaxed;

        for (const InaccessibleBoxEntry& e : vo.boxes) {
          auto it = parent_of.find({e.box.lo, e.box.hi});
          if (it == parent_of.end()) {
            EXPECT_TRUE(e.box == keys.domain.FullBox()) << what;
            continue;
          }
          EXPECT_TRUE(accessible(it->second))
              << what << ": a box's parent is inaccessible";
        }
        for (const auto& e : vo.inaccessible) {
          DupGridTree::NodeId leaf = tree.LeafAt(e.key);
          if (accessible(leaf)) continue;  // one member of a result leaf
          EXPECT_TRUE(accessible(tree.Parent(leaf)))
              << what << ": an inaccessible group's parent is inaccessible";
        }
      }
    }
  }
  EXPECT_LT(crossing_total, containment_total)
      << crossing_total << " vs " << containment_total;
}

// A crossing join built with its relaxations on 1, 2 and 4 threads has the
// serial build's APS regions in the same order, per table, and verifies to
// the same rows. Part of the TSan workload in scripts/check.sh.
TEST(ParallelPathTest, PooledCrossingJoinMatchesSerial) {
  JoinDeployment& d = Joins();
  const SystemKeys& keys = d.owner.keys();
  RoleSet roles = d.policies.RolesForAccessFraction(0.2);
  VerifyContext ctx(keys.mvk, keys.domain, roles, keys.universe);
  std::vector<const GridTree*> trees = d.First(3);
  Rng rng(617);
  const Box range{Point{37}, Point{90}};
  JoinVo serial =
      BuildJoinVo(trees, keys.mvk, range, roles, keys.universe, &rng);
  std::size_t crossing = 0;
  for (const auto& side : serial.aps) {
    for (const VoEntry& e : side) {
      crossing += range.ContainsBox(EntryRegion(e)) ? 0 : 1;
    }
  }
  ASSERT_GT(crossing, 0u);
  std::vector<std::vector<Record>> serial_rows;
  ASSERT_TRUE(VerifyOk(VerifyJoinVo(ctx, range, 3, serial, &serial_rows)));
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    JoinVo pooled =
        BuildJoinVo(trees, keys.mvk, range, roles, keys.universe, &rng, &pool);
    ASSERT_EQ(pooled.aps.size(), serial.aps.size()) << threads;
    for (std::size_t t = 0; t < serial.aps.size(); ++t) {
      ASSERT_EQ(pooled.aps[t].size(), serial.aps[t].size()) << threads;
      for (std::size_t i = 0; i < serial.aps[t].size(); ++i) {
        EXPECT_TRUE(EntryRegion(pooled.aps[t][i]) ==
                    EntryRegion(serial.aps[t][i]))
            << threads << " threads, table " << t << ", entry " << i;
      }
    }
    std::vector<std::vector<Record>> pooled_rows;
    ASSERT_TRUE(VerifyOk(VerifyJoinVo(ctx, range, 3, pooled, &pooled_rows)))
        << threads;
    EXPECT_EQ(SortedRows(pooled_rows), SortedRows(serial_rows)) << threads;
  }
}

// The relax stage is planned serially from the query's stream and only its
// multiplies fan out, so a pooled build is the serial build byte for byte:
// 20 fixed seeds, range VOs and three-table join VOs, on 1, 2 and 4
// threads.
TEST(ParallelPathTest, PooledRelaxBytesMatchSerial) {
  TpchDeployment& d = Tpch();
  const SystemKeys& keys = d.owner.keys();
  const RoleSet roles = d.policies.RolesForAccessFraction(0.2);
  JoinDeployment& j = Joins();
  const SystemKeys& jkeys = j.owner.keys();
  const RoleSet jroles = j.policies.RolesForAccessFraction(0.2);
  const std::vector<const GridTree*> trees = j.First(3);
  auto bytes = [](const auto& vo) {
    common::ByteWriter w;
    vo.Serialize(&w);
    return w.Take();
  };
  ThreadPool pools[] = {ThreadPool(1), ThreadPool(2), ThreadPool(4)};
  std::size_t relaxed = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng qrng(seed);
    const Box range = tpch::RandomRangeQuery(keys.domain, 0.02, &qrng);
    const auto lo = static_cast<std::uint32_t>(qrng.NextU64() % 200);
    const Box jrange{Point{lo}, Point{lo + 40}};
    auto range_vo = [&](ThreadPool* pool) {
      Rng rng(1000 + seed);
      return BuildRangeVo(d.sp->tree(), keys.mvk, range, roles, keys.universe,
                          &rng, pool);
    };
    auto join_vo = [&](ThreadPool* pool) {
      Rng rng(2000 + seed);
      return BuildJoinVo(trees, jkeys.mvk, jrange, jroles, jkeys.universe,
                         &rng, pool);
    };
    const Vo serial = range_vo(nullptr);
    const JoinVo jserial = join_vo(nullptr);
    for (const VoEntry& e : serial.entries) {
      relaxed += std::holds_alternative<ResultEntry>(e) ? 0 : 1;
    }
    for (const auto& side : jserial.aps) relaxed += side.size();
    for (ThreadPool& pool : pools) {
      EXPECT_EQ(bytes(range_vo(&pool)), bytes(serial))
          << pool.thread_count() << " threads, range VO";
      EXPECT_EQ(bytes(join_vo(&pool)), bytes(jserial))
          << pool.thread_count() << " threads, join VO";
    }
  }
  EXPECT_GT(relaxed, 40u);
}

// The DO's signing stage queues every node in level order from its stream
// and only the multiplies fan out, so a pooled ADS is the serial ADS byte
// for byte, stamp included (the stamp is signed from the stream after the
// build), and so is the update that follows it. More than one run of the
// stage: the tree has 255 nodes.
TEST(ParallelPathTest, PooledBuildAdsBytesMatchSerial) {
  const Domain domain{/*dims=*/1, /*bits=*/7};
  std::vector<Record> records;
  const char* policies[] = {"RoleA", "RoleA & RoleB", "RoleB | RoleC",
                            "(RoleA & RoleC) | RoleB"};
  for (std::uint32_t k = 0; k < 128; k += 3) {
    records.push_back(Rec(k, "v" + std::to_string(k), policies[k % 4]));
  }
  const std::vector<AdsUpdateOp> ops = {
      {AdsUpdateOp::Kind::kUpsert, Rec(4, "new", "RoleC")},
      {AdsUpdateOp::Kind::kDelete, Rec(9, "", "RoleA")},
      {AdsUpdateOp::Kind::kUpsert, Rec(100, "w", "RoleA & RoleC")}};
  auto build = [&](ThreadPool* pool) {
    DataOwner owner(RoleSet{"RoleA", "RoleB", "RoleC"}, domain, 4242);
    GridTree tree = owner.BuildAds(records, pool);
    common::ByteWriter w;
    tree.Serialize(&w);
    owner.ApplyUpdates(&tree, ops).Serialize(&w);
    tree.Serialize(&w);
    return w.Take();
  };
  const std::vector<std::uint8_t> serial = build(nullptr);
  EXPECT_EQ(build(nullptr), serial);
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    for (int run = 0; run < 2; ++run) {
      EXPECT_EQ(build(&pool), serial) << threads << " threads, run " << run;
    }
  }
}

}  // namespace
}  // namespace apqa::core
