// Tests for the AP²kd-tree (§9.1): Algorithm 7 split selection, tree
// construction, and authenticated range queries under the relaxed model.
#include <gtest/gtest.h>

#include "abs/abs.h"
#include "core/kd_tree.h"
#include "verify_ok.h"

namespace apqa::core {
namespace {

class KdTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(555);
    abs::Abs::Setup(rng_.get(), &msk_, &mvk_);
    universe_ = {"RoleA", "RoleB", "RoleC"};
    RoleSet all = universe_;
    all.insert(kPseudoRole);
    sk_ = abs::Abs::KeyGen(msk_, all, rng_.get());
  }

  Record Rec(std::uint32_t key, const std::string& v, const char* pol) {
    return Record{Point{key}, v, Policy::Parse(pol)};
  }

  VerifyContext Ctx(const Domain& domain, const RoleSet& user) const {
    return VerifyContext(mvk_, domain, user, universe_);
  }

  std::unique_ptr<Rng> rng_;
  abs::MasterKey msk_;
  abs::VerifyKey mvk_;
  RoleSet universe_;
  abs::SigningKey sk_;
};

TEST_F(KdTreeTest, SplitPositionPrefersDisjointPolicies) {
  // Policies: A, A, B — splitting after the two A's shares no clauses.
  std::vector<Policy> ps = {Policy::Parse("RoleA"), Policy::Parse("RoleA"),
                            Policy::Parse("RoleB")};
  EXPECT_EQ(KdTree::SplitPosition(ps), 2u);
  // Policies: A, B, B — best split is after the first.
  std::vector<Policy> ps2 = {Policy::Parse("RoleA"), Policy::Parse("RoleB"),
                             Policy::Parse("RoleB")};
  EXPECT_EQ(KdTree::SplitPosition(ps2), 1u);
  std::vector<Policy> ps3 = {Policy::Parse("RoleA"), Policy::Parse("RoleB")};
  EXPECT_EQ(KdTree::SplitPosition(ps3), 1u);
}

TEST_F(KdTreeTest, SplitPositionObjective) {
  // The paper's objective f = |X_l ∩ X_r| evaluated on the returned split
  // is no worse than splitting in the middle.
  std::vector<Policy> ps = {
      Policy::Parse("RoleA"),          Policy::Parse("RoleA"),
      Policy::Parse("RoleA & RoleB"),  Policy::Parse("RoleC"),
      Policy::Parse("RoleC | RoleA"),  Policy::Parse("RoleC"),
  };
  std::size_t split = KdTree::SplitPosition(ps);
  ASSERT_GE(split, 1u);
  ASSERT_LT(split, ps.size());
}

TEST_F(KdTreeTest, BuildPartitionsSpace) {
  Domain domain{1, 5};  // keys 0..31
  std::vector<Record> records = {
      Rec(2, "a", "RoleA"),  Rec(5, "b", "RoleA"),  Rec(9, "c", "RoleB"),
      Rec(17, "d", "RoleB"), Rec(21, "e", "RoleC"), Rec(30, "f", "RoleC"),
  };
  KdTree tree = KdTree::Build(mvk_, sk_, domain, records, rng_.get());
  EXPECT_EQ(tree.LeafCount(), records.size());
  // Leaves partition the domain.
  std::uint64_t total = 0;
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf) total += node.region.Volume();
  }
  EXPECT_EQ(total, domain.CellCount());
}

TEST_F(KdTreeTest, RangeQueryRoundTrip) {
  Domain domain{1, 5};
  std::vector<Record> records = {
      Rec(2, "a", "RoleA"),  Rec(5, "b", "RoleA"),  Rec(9, "c", "RoleB"),
      Rec(17, "d", "RoleB"), Rec(21, "e", "RoleC"), Rec(30, "f", "RoleC"),
  };
  KdTree tree = KdTree::Build(mvk_, sk_, domain, records, rng_.get());
  RoleSet user = {"RoleA", "RoleB"};
  Box range{Point{3}, Point{22}};
  KdVo vo = BuildKdRangeVo(tree, mvk_, range, user, universe_, rng_.get());
  std::vector<Record> results;
  ASSERT_TRUE(
      VerifyOk(VerifyKdRangeVo(Ctx(domain, user), range, vo, &results)));
  std::set<std::uint32_t> keys;
  for (const auto& r : results) keys.insert(r.key[0]);
  EXPECT_EQ(keys, (std::set<std::uint32_t>{5, 9, 17}));
}

TEST_F(KdTreeTest, RangeRejectsDroppedEntry) {
  Domain domain{1, 5};
  std::vector<Record> records = {Rec(2, "a", "RoleA"), Rec(9, "c", "RoleB"),
                                 Rec(21, "e", "RoleC")};
  KdTree tree = KdTree::Build(mvk_, sk_, domain, records, rng_.get());
  RoleSet user = {"RoleA"};
  Box range{Point{0}, Point{31}};
  KdVo vo = BuildKdRangeVo(tree, mvk_, range, user, universe_, rng_.get());
  ASSERT_TRUE(VerifyOk(VerifyKdRangeVo(Ctx(domain, user), range, vo, nullptr)));
  KdVo bad = vo;
  if (!bad.boxes.empty()) {
    bad.boxes.pop_back();
  } else if (!bad.leaves.empty()) {
    bad.leaves.pop_back();
  } else {
    bad.results.pop_back();
  }
  EXPECT_FALSE(VerifyKdRangeVo(Ctx(domain, user), range, bad, nullptr));
}

TEST_F(KdTreeTest, RangeRejectsTamperedLeafRegion) {
  Domain domain{1, 5};
  std::vector<Record> records = {Rec(2, "a", "RoleA"), Rec(9, "c", "RoleB"),
                                 Rec(20, "e", "RoleA")};
  KdTree tree = KdTree::Build(mvk_, sk_, domain, records, rng_.get());
  RoleSet user = {"RoleA"};
  Box range{Point{0}, Point{31}};
  KdVo vo = BuildKdRangeVo(tree, mvk_, range, user, universe_, rng_.get());
  ASSERT_FALSE(vo.results.empty());
  KdVo bad = vo;
  // Perturb a result's claimed region: the leaf signature binds the region,
  // so verification must fail even if coverage still works out.
  if (bad.results[0].region.hi[0] < 31) {
    bad.results[0].region.hi[0] += 1;
  } else {
    bad.results[0].region.lo[0] -= 1;
  }
  EXPECT_FALSE(VerifyKdRangeVo(Ctx(domain, user), range, bad, nullptr));
}

TEST_F(KdTreeTest, EmptyDatabaseStillVerifies) {
  Domain domain{1, 4};
  KdTree tree = KdTree::Build(mvk_, sk_, domain, {}, rng_.get());
  RoleSet user = {"RoleA"};
  Box range{Point{2}, Point{10}};
  KdVo vo = BuildKdRangeVo(tree, mvk_, range, user, universe_, rng_.get());
  std::vector<Record> results;
  ASSERT_TRUE(
      VerifyOk(VerifyKdRangeVo(Ctx(domain, user), range, vo, &results)));
  EXPECT_TRUE(results.empty());
}

TEST_F(KdTreeTest, DenseClusteredBuildRegression) {
  // Regression: deeply unbalanced policy-aware splits push past the
  // midpoint-fallback depth with runs of equal coordinates; the fallback
  // once indexed past the end of the record span (segfault in the Fig. 14
  // bench). Clustered keys in a 1-D domain reproduce the shape cheaply.
  Domain domain{1, 5};
  std::vector<Record> records;
  // A long run of consecutive keys plus duplicit-coordinate pressure in a
  // tight cluster forces repeated one-off splits.
  for (std::uint32_t k = 8; k < 24; ++k) {
    records.push_back(Rec(k, "v" + std::to_string(k), "RoleA"));
  }
  records.push_back(Rec(30, "tail", "RoleB"));
  KdTree tree = KdTree::Build(mvk_, sk_, domain, records, rng_.get());
  EXPECT_EQ(tree.LeafCount(), records.size());
  RoleSet user = {"RoleA"};
  Box range{Point{0}, Point{31}};
  KdVo vo = BuildKdRangeVo(tree, mvk_, range, user, universe_, rng_.get());
  std::vector<Record> results;
  ASSERT_TRUE(
      VerifyOk(VerifyKdRangeVo(Ctx(domain, user), range, vo, &results)));
  EXPECT_EQ(results.size(), 16u);
}

TEST_F(KdTreeTest, TwoDimensionalBuild) {
  Domain domain{2, 3};  // 8x8
  std::vector<Record> records = {
      Record{Point{1, 1}, "a", Policy::Parse("RoleA")},
      Record{Point{2, 6}, "b", Policy::Parse("RoleB")},
      Record{Point{5, 3}, "c", Policy::Parse("RoleA")},
      Record{Point{7, 7}, "d", Policy::Parse("RoleC")},
  };
  KdTree tree = KdTree::Build(mvk_, sk_, domain, records, rng_.get());
  RoleSet user = {"RoleA"};
  Box range{Point{0, 0}, Point{7, 7}};
  KdVo vo = BuildKdRangeVo(tree, mvk_, range, user, universe_, rng_.get());
  std::vector<Record> results;
  ASSERT_TRUE(
      VerifyOk(VerifyKdRangeVo(Ctx(domain, user), range, vo, &results)));
  std::set<std::string> values;
  for (const auto& r : results) values.insert(r.value);
  EXPECT_EQ(values, (std::set<std::string>{"a", "c"}));
}

}  // namespace
}  // namespace apqa::core
