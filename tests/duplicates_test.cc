// Tests for duplicate-key handling (Appendix E): super-record merging, the
// zero-knowledge virtual dimension, and the non-ZK dup-embedding grid tree.
#include <gtest/gtest.h>

#include "core/duplicates.h"
#include "core/range_query.h"
#include "core/system.h"
#include "verify_ok.h"

namespace apqa::core {
namespace {

Record Rec(std::uint32_t key, const std::string& v, const char* pol) {
  return Record{Point{key}, v, Policy::Parse(pol)};
}

TEST(MergeSuperRecordsTest, MergesSameKeySamePolicy) {
  std::vector<Record> records = {
      Rec(3, "a", "RoleA"), Rec(3, "b", "RoleA"), Rec(3, "c", "RoleB"),
      Rec(5, "d", "RoleA"),
  };
  auto merged = MergeSuperRecords(records);
  EXPECT_EQ(merged.size(), 3u);  // (3,RoleA) merged; (3,RoleB); (5,RoleA)
  for (const auto& r : merged) {
    if (r.key == Point{3} && r.policy.ToString() == "RoleA") {
      // Two length-prefixed member values.
      EXPECT_EQ(r.value.size(), 4 + 1 + 4 + 1u);
    }
  }
}

TEST(VirtualDimensionTest, MakesKeysDistinct) {
  Rng rng(9);
  Domain domain{1, 4};
  std::vector<Record> records = {
      Rec(3, "a", "RoleA"), Rec(3, "b", "RoleB"), Rec(3, "c", "RoleA | RoleB"),
      Rec(7, "d", "RoleA"),
  };
  auto result = AddVirtualDimension(domain, records, /*vdim_bits=*/4, &rng);
  EXPECT_EQ(result.extended_domain.dims, 2);
  EXPECT_EQ(result.records.size(), 4u);
  std::set<Point> keys;
  for (const auto& r : result.records) {
    EXPECT_EQ(r.key.size(), 2u);
    EXPECT_TRUE(keys.insert(r.key).second) << "duplicate extended key";
  }
}

TEST(VirtualDimensionTest, RejectsTooManyDuplicates) {
  Rng rng(9);
  Domain domain{1, 2};
  std::vector<Record> records;
  for (int i = 0; i < 5; ++i) records.push_back(Rec(1, "v", "RoleA"));
  EXPECT_THROW(AddVirtualDimension(domain, records, /*vdim_bits=*/2, &rng),
               std::invalid_argument);
}

TEST(VirtualDimensionTest, EndToEndZkRangeQuery) {
  // Full Appendix E ZK pipeline: merge, extend, build AP²G-tree, query with
  // an extended range, verify.
  Domain domain{1, 3};  // keys 0..7
  std::vector<Record> records = {
      Rec(2, "a", "RoleA"), Rec(2, "b", "RoleA"),  // same key+policy: merged
      Rec(2, "c", "RoleB"),                        // same key, other policy
      Rec(5, "d", "RoleA"),
  };
  auto merged = MergeSuperRecords(records);
  DataOwner owner({"RoleA", "RoleB"}, domain, 2026);
  Rng vrng(7);
  auto extended = AddVirtualDimension(domain, merged, domain.bits, &vrng);
  // Build the tree over the extended domain via a dedicated owner.
  DataOwner owner2({"RoleA", "RoleB"}, extended.extended_domain, 2027);
  ServiceProvider sp(owner2.keys(), owner2.BuildAds(extended.records));
  User user(owner2.keys(), owner2.EnrollUser({"RoleA"}));

  Box range{Point{0}, Point{6}};
  Box extended_range = ExtendRangeToVirtualDim(range, extended.extended_domain);
  Vo vo = sp.RangeQuery(extended_range, user.roles());
  std::vector<Record> results;
  ASSERT_TRUE(VerifyOk(user.VerifyRange(extended_range, vo, &results)));
  // RoleA sees the merged (a,b) super-record and d.
  std::set<std::uint32_t> keys;
  for (const auto& r : results) keys.insert(r.key[0]);
  EXPECT_EQ(keys, (std::set<std::uint32_t>{2, 5}));
}

class DupTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(888);
    abs::Abs::Setup(rng_.get(), &msk_, &mvk_);
    universe_ = {"RoleA", "RoleB"};
    RoleSet all = universe_;
    all.insert(kPseudoRole);
    sk_ = abs::Abs::KeyGen(msk_, all, rng_.get());
    domain_ = Domain{1, 3};
    std::vector<Record> records = {
        Rec(2, "a", "RoleA"), Rec(2, "b", "RoleB"), Rec(2, "c", "RoleA"),
        Rec(5, "d", "RoleA"), Rec(6, "e", "RoleB"),
    };
    tree_ = std::make_unique<DupGridTree>(
        DupGridTree::Build(mvk_, sk_, domain_, records, rng_.get()));
  }

  VerifyContext Ctx(const RoleSet& user) const {
    return VerifyContext(mvk_, domain_, user, universe_);
  }

  std::unique_ptr<Rng> rng_;
  abs::MasterKey msk_;
  abs::VerifyKey mvk_;
  RoleSet universe_;
  abs::SigningKey sk_;
  Domain domain_;
  std::unique_ptr<DupGridTree> tree_;
};

TEST_F(DupTreeTest, RangeReturnsAllAccessibleDuplicates) {
  RoleSet user = {"RoleA"};
  Box range{Point{0}, Point{7}};
  DupVo vo = BuildDupRangeVo(*tree_, mvk_, range, user, universe_, rng_.get());
  std::vector<Record> results;
  ASSERT_TRUE(VerifyOk(VerifyDupRangeVo(Ctx(user), range, vo, &results)));
  std::multiset<std::string> values;
  for (const auto& r : results) values.insert(r.value);
  EXPECT_EQ(values, (std::multiset<std::string>{"a", "c", "d"}));
}

TEST_F(DupTreeTest, RejectsHiddenDuplicate) {
  RoleSet user = {"RoleA"};
  Box range{Point{0}, Point{7}};
  DupVo vo = BuildDupRangeVo(*tree_, mvk_, range, user, universe_, rng_.get());
  DupVo bad = vo;
  // Drop one accessible duplicate of key 2: dup_num bookkeeping must catch it.
  ASSERT_GE(bad.results.size(), 2u);
  bad.results.erase(bad.results.begin());
  EXPECT_FALSE(VerifyDupRangeVo(Ctx(user), range, bad, nullptr));
}

TEST_F(DupTreeTest, RejectsForgedDupNum) {
  RoleSet user = {"RoleA"};
  Box range{Point{0}, Point{7}};
  DupVo vo = BuildDupRangeVo(*tree_, mvk_, range, user, universe_, rng_.get());
  DupVo bad = vo;
  ASSERT_FALSE(bad.results.empty());
  // Claim the group is smaller than it is: the signature binds dup_num.
  for (auto& e : bad.results) {
    if (e.key == Point{2}) e.dup_num = 1;
  }
  for (auto& e : bad.inaccessible) {
    if (e.key == Point{2}) e.dup_num = 1;
  }
  EXPECT_FALSE(VerifyDupRangeVo(Ctx(user), range, bad, nullptr));
}

TEST_F(DupTreeTest, InaccessibleGroupsAggregated) {
  RoleSet user = {};  // no roles: everything inaccessible
  Box range{Point{0}, Point{7}};
  DupVo vo = BuildDupRangeVo(*tree_, mvk_, range, user, universe_, rng_.get());
  ASSERT_TRUE(VerifyOk(VerifyDupRangeVo(Ctx(user), range, vo, nullptr)));
  EXPECT_TRUE(vo.results.empty());
  // The whole domain should collapse to a single root APS box.
  EXPECT_EQ(vo.boxes.size(), 1u);
  EXPECT_TRUE(vo.inaccessible.empty());
}

}  // namespace
}  // namespace apqa::core
