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
  MultiJoinVo vo = BuildMultiJoinVo(tree_ptrs_, owner_->keys().mvk, range,
                                    roles, owner_->keys().universe, &rng_);
  std::vector<std::vector<Record>> results;
  ASSERT_TRUE(VerifyOk(VerifyMultiJoinVo(Ctx(roles), range, 3, vo, &results)));
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
  MultiJoinVo vo = BuildMultiJoinVo(tree_ptrs_, owner_->keys().mvk, range,
                                    roles, owner_->keys().universe, &rng_);
  std::vector<std::vector<Record>> results;
  ASSERT_TRUE(VerifyOk(VerifyMultiJoinVo(Ctx(roles), range, 3, vo, &results)));
  // Keys 1 and 9 join across all three tables.
  ASSERT_EQ(results.size(), 2u);
}

TEST_F(MultiJoinTest, RejectsDroppedTuple) {
  RoleSet roles = {"RoleA", "RoleB"};
  Box range{Point{0}, Point{15}};
  MultiJoinVo vo = BuildMultiJoinVo(tree_ptrs_, owner_->keys().mvk, range,
                                    roles, owner_->keys().universe, &rng_);
  MultiJoinVo bad = vo;
  ASSERT_FALSE(bad.tuples.empty());
  bad.tuples.pop_back();
  EXPECT_FALSE(VerifyMultiJoinVo(Ctx(roles), range, 3, bad, nullptr));
}

TEST_F(MultiJoinTest, RejectsWrongArity) {
  RoleSet roles = {"RoleA"};
  Box range{Point{0}, Point{15}};
  MultiJoinVo vo = BuildMultiJoinVo(tree_ptrs_, owner_->keys().mvk, range,
                                    roles, owner_->keys().universe, &rng_);
  EXPECT_FALSE(VerifyMultiJoinVo(Ctx(roles), range, 2, vo, nullptr));
}

TEST_F(MultiJoinTest, TwoTableMultiJoinMatchesPairJoin) {
  RoleSet roles = {"RoleA"};
  Box range{Point{0}, Point{15}};
  std::vector<const GridTree*> two = {tree_ptrs_[0], tree_ptrs_[1]};
  MultiJoinVo mvo = BuildMultiJoinVo(two, owner_->keys().mvk, range, roles,
                                     owner_->keys().universe, &rng_);
  JoinVo jvo = BuildJoinVo(trees_[0], trees_[1], owner_->keys().mvk, range,
                           roles, owner_->keys().universe, &rng_);
  std::vector<std::vector<Record>> mresults;
  std::vector<std::pair<Record, Record>> jresults;
  ASSERT_TRUE(
      VerifyOk(VerifyMultiJoinVo(Ctx(roles), range, 2, mvo, &mresults)));
  ASSERT_TRUE(VerifyOk(VerifyJoinVo(Ctx(roles), range, jvo, &jresults)));
  EXPECT_EQ(mresults.size(), jresults.size());
}

}  // namespace
}  // namespace apqa::core
