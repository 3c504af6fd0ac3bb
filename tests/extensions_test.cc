// Tests for the paper's extension features: authenticated aggregation
// (§11 future work) and multi-way joins (§6.2).
#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/system.h"
#include "verify_ok.h"

namespace apqa::core {
namespace {

Record Rec(std::uint32_t key, const std::string& v, const char* pol) {
  return Record{Point{key}, v, Policy::Parse(pol)};
}

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Domain domain{1, 4};
    owner_ = std::make_unique<DataOwner>(RoleSet{"RoleA", "RoleB"}, domain,
                                         515);
    std::vector<Record> records = {
        Rec(1, "10.5", "RoleA"), Rec(3, "2", "RoleA"),
        Rec(5, "100", "RoleB"),  Rec(7, "7.5", "RoleA | RoleB"),
        Rec(9, "oops", "RoleA"),  // non-numeric: skipped by the measure
    };
    sp_ = std::make_unique<ServiceProvider>(owner_->keys(),
                                            owner_->BuildAds(records));
  }

  VerifyContext Ctx(const RoleSet& roles) const {
    return VerifyContext(owner_->keys().mvk, owner_->keys().domain, roles,
                         owner_->keys().universe);
  }
  std::unique_ptr<DataOwner> owner_;
  std::unique_ptr<ServiceProvider> sp_;
};

TEST_F(AggregateTest, AggregatesAccessibleRecordsOnly) {
  RoleSet roles = {"RoleA"};
  Box range{Point{0}, Point{15}};
  Vo vo = sp_->RangeQuery(range, roles);
  AggregateResult agg;
  ASSERT_TRUE(VerifyOk(
      VerifyAndAggregate(Ctx(roles), range, vo, NumericValueMeasure, &agg)));
  EXPECT_EQ(agg.count, 3u);  // 10.5, 2, 7.5 ("oops" skipped, 100 is RoleB)
  EXPECT_DOUBLE_EQ(agg.sum, 20.0);
  EXPECT_DOUBLE_EQ(*agg.min, 2.0);
  EXPECT_DOUBLE_EQ(*agg.max, 10.5);
  EXPECT_NEAR(*agg.Avg(), 20.0 / 3, 1e-9);
}

TEST_F(AggregateTest, FailsOnTamperedVo) {
  RoleSet roles = {"RoleA"};
  Box range{Point{0}, Point{15}};
  Vo vo = sp_->RangeQuery(range, roles);
  Vo bad = vo;
  bad.entries.pop_back();
  EXPECT_FALSE(
      VerifyAndAggregate(Ctx(roles), range, bad, NumericValueMeasure, nullptr));
}

TEST_F(AggregateTest, EmptyRangeAggregatesToZero) {
  RoleSet roles = {"RoleB"};
  Box range{Point{10}, Point{15}};
  Vo vo = sp_->RangeQuery(range, roles);
  AggregateResult agg;
  ASSERT_TRUE(VerifyOk(
      VerifyAndAggregate(Ctx(roles), range, vo, NumericValueMeasure, &agg)));
  EXPECT_EQ(agg.count, 0u);
  EXPECT_FALSE(agg.Avg().has_value());
}

class MultiJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Domain domain{1, 4};
    owner_ = std::make_unique<DataOwner>(RoleSet{"RoleA", "RoleB"}, domain,
                                         616);
    trees_.push_back(owner_->BuildAds({
        Rec(1, "r1", "RoleA"), Rec(5, "r5", "RoleA"), Rec(9, "r9", "RoleB"),
    }));
    trees_.push_back(owner_->BuildAds({
        Rec(1, "s1", "RoleA"), Rec(5, "s5", "RoleB"), Rec(9, "s9", "RoleA"),
    }));
    trees_.push_back(owner_->BuildAds({
        Rec(1, "t1", "RoleA"), Rec(9, "t9", "RoleA"), Rec(12, "t12", "RoleA"),
    }));
    for (const auto& t : trees_) tree_ptrs_.push_back(&t);
  }

  VerifyContext Ctx(const RoleSet& roles) const {
    return VerifyContext(owner_->keys().mvk, owner_->keys().domain, roles,
                         owner_->keys().universe);
  }
  std::unique_ptr<DataOwner> owner_;
  std::vector<GridTree> trees_;
  std::vector<const GridTree*> tree_ptrs_;
  Rng rng_{99};
};

TEST_F(MultiJoinTest, ThreeWayJoin) {
  RoleSet roles = {"RoleA"};
  Box range{Point{0}, Point{15}};
  JoinVo vo = BuildJoinVo(tree_ptrs_, owner_->keys().mvk, range, roles,
                          owner_->keys().universe, &rng_);
  std::vector<std::vector<Record>> results;
  ASSERT_TRUE(VerifyOk(VerifyJoinVo(Ctx(roles), range, 3, vo, &results)));
  // Key 1 joins in all three tables and is RoleA-accessible everywhere.
  // Key 5: t-table has no record. Key 9: s-table ok but r-table is RoleB.
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0][0].value, "r1");
  EXPECT_EQ(results[0][1].value, "s1");
  EXPECT_EQ(results[0][2].value, "t1");
}

TEST_F(MultiJoinTest, AllRolesSeeMore) {
  RoleSet roles = {"RoleA", "RoleB"};
  Box range{Point{0}, Point{15}};
  JoinVo vo = BuildJoinVo(tree_ptrs_, owner_->keys().mvk, range, roles,
                          owner_->keys().universe, &rng_);
  std::vector<std::vector<Record>> results;
  ASSERT_TRUE(VerifyOk(VerifyJoinVo(Ctx(roles), range, 3, vo, &results)));
  // Keys 1 and 9 join across all three tables.
  ASSERT_EQ(results.size(), 2u);
}

TEST_F(MultiJoinTest, RejectsDroppedTuple) {
  RoleSet roles = {"RoleA", "RoleB"};
  Box range{Point{0}, Point{15}};
  JoinVo vo = BuildJoinVo(tree_ptrs_, owner_->keys().mvk, range, roles,
                          owner_->keys().universe, &rng_);
  JoinVo bad = vo;
  ASSERT_FALSE(bad.tuples.empty());
  bad.tuples.pop_back();
  EXPECT_FALSE(VerifyJoinVo(Ctx(roles), range, 3, bad, nullptr));
}

TEST_F(MultiJoinTest, RejectsWrongArity) {
  RoleSet roles = {"RoleA"};
  Box range{Point{0}, Point{15}};
  JoinVo vo = BuildJoinVo(tree_ptrs_, owner_->keys().mvk, range, roles,
                          owner_->keys().universe, &rng_);
  VerifyResult r = VerifyJoinVo(Ctx(roles), range, 2, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kStaleEpoch) << r.ToString();
  // Fewer than two tables is no join: rejected before the tuples are read.
  r = VerifyJoinVo(Ctx(roles), range, 1, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kBadQuery) << r.ToString();
  common::ByteWriter w;
  vo.Serialize(&w);
  common::ByteReader reader(w.data());
  JoinVo none = JoinVo::DeserializeRaw(&reader, 0);
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(none.tuples.empty());
}

// The last table's key shifted *and* the first table's value tampered on
// one tuple: the key check runs before any side's policy or signature.
TEST_F(MultiJoinTest, KeyMismatchOutranksTamperedValue) {
  RoleSet roles = {"RoleA", "RoleB"};
  Box range{Point{0}, Point{15}};
  JoinVo vo = BuildJoinVo(tree_ptrs_, owner_->keys().mvk, range, roles,
                          owner_->keys().universe, &rng_);
  ASSERT_EQ(vo.tuples.size(), 2u);
  vo.tuples[1][2].key[0] += 1;
  vo.tuples[1][0].value += "-tampered";
  VerifyResult r = VerifyJoinVo(Ctx(roles), range, 3, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kKeyMismatch) << r.ToString();
  EXPECT_EQ(r.entry_index, 1);
}

// A 3-table VO survives Serialize / Deserialize(r, 3) and verifies to the
// same rows; read as a 2-table VO the same bytes are rejected.
TEST_F(MultiJoinTest, ThreeTableWireRoundTrip) {
  RoleSet roles = {"RoleA", "RoleB"};
  Box range{Point{0}, Point{15}};
  JoinVo vo = BuildJoinVo(tree_ptrs_, owner_->keys().mvk, range, roles,
                          owner_->keys().universe, &rng_);
  common::ByteWriter w;
  vo.Serialize(&w);
  EXPECT_EQ(vo.SerializedSize(), w.size());

  common::ByteReader r3(w.data());
  common::Untrusted<JoinVo> back = JoinVo::Deserialize(&r3, 3);
  ASSERT_TRUE(r3.ok() && r3.AtEnd());
  std::vector<std::vector<Record>> want, got;
  ASSERT_TRUE(VerifyOk(VerifyJoinVo(Ctx(roles), range, 3, vo, &want)));
  ASSERT_TRUE(VerifyOk(VerifyJoinVo(Ctx(roles), range, 3, back, &got)));
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].size(), got[i].size());
    for (std::size_t j = 0; j < want[i].size(); ++j) {
      EXPECT_EQ(want[i][j].key, got[i][j].key);
      EXPECT_EQ(want[i][j].value, got[i][j].value);
    }
  }

  common::ByteReader r2(w.data());
  common::Untrusted<JoinVo> as_two = JoinVo::Deserialize(&r2, 2);
  bool rejected = !r2.ok() || !r2.AtEnd() ||
                  !VerifyJoinVo(Ctx(roles), range, 2, as_two, nullptr).ok();
  EXPECT_TRUE(rejected);
}

}  // namespace
}  // namespace apqa::core
