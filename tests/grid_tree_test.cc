// Unit tests for the AP²G-tree structure itself (navigation, policies,
// pseudo records, and the DO → SP serialization of the outsourced ADS).
#include <gtest/gtest.h>

#include "core/range_query.h"
#include "core/system.h"
#include "verify_ok.h"

namespace apqa::core {
namespace {

class GridTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(777);
    abs::Abs::Setup(rng_.get(), &msk_, &mvk_);
    universe_ = {"RoleA", "RoleB"};
    RoleSet all = universe_;
    all.insert(kPseudoRole);
    sk_ = abs::Abs::KeyGen(msk_, all, rng_.get());
  }

  GridTree BuildSmall() {
    Domain domain{2, 2};  // 4x4
    std::vector<Record> records = {
        Record{Point{0, 1}, "a", Policy::Parse("RoleA")},
        Record{Point{3, 2}, "b", Policy::Parse("RoleB")},
    };
    return GridTree::Build(mvk_, sk_, domain, records, rng_.get());
  }

  std::unique_ptr<Rng> rng_;
  abs::MasterKey msk_;
  abs::VerifyKey mvk_;
  RoleSet universe_;
  abs::SigningKey sk_;
};

TEST_F(GridTreeTest, FullTreeShape) {
  GridTree tree = BuildSmall();
  EXPECT_EQ(tree.LeafCount(), 16u);
  EXPECT_EQ(tree.NodeCount(), 16u + 4u + 1u);
  EXPECT_EQ(tree.depth(), 2);
  const auto& root = tree.GetNode(tree.Root());
  EXPECT_FALSE(root.is_leaf);
  EXPECT_EQ(root.box, (Box{Point{0, 0}, Point{3, 3}}));
}

TEST_F(GridTreeTest, ChildrenPartitionParent) {
  GridTree tree = BuildSmall();
  auto children = tree.Children(tree.Root());
  ASSERT_EQ(children.size(), 4u);
  std::uint64_t vol = 0;
  for (auto c : children) {
    const auto& node = tree.GetNode(c);
    EXPECT_TRUE(tree.GetNode(tree.Root()).box.ContainsBox(node.box));
    vol += node.box.Volume();
  }
  EXPECT_EQ(vol, 16u);
}

TEST_F(GridTreeTest, LeafAtFindsCell) {
  GridTree tree = BuildSmall();
  auto id = tree.LeafAt(Point{3, 2});
  const auto& leaf = tree.GetNode(id);
  EXPECT_TRUE(leaf.is_leaf);
  EXPECT_FALSE(leaf.is_pseudo);
  EXPECT_EQ(leaf.record.value, "b");
  const auto& empty = tree.GetNode(tree.LeafAt(Point{2, 2}));
  EXPECT_TRUE(empty.is_pseudo);
  EXPECT_EQ(empty.record.policy.ToString(), kPseudoRole);
}

TEST_F(GridTreeTest, InternalPolicyIsOrOfChildren) {
  GridTree tree = BuildSmall();
  const auto& root = tree.GetNode(tree.Root());
  // Root must be satisfiable by any role that reaches some record and by no
  // empty role set.
  EXPECT_TRUE(root.policy.Evaluate({"RoleA"}));
  EXPECT_TRUE(root.policy.Evaluate({"RoleB"}));
  EXPECT_FALSE(root.policy.Evaluate({}));
}

TEST_F(GridTreeTest, RejectsDuplicateKeys) {
  Domain domain{1, 2};
  std::vector<Record> dup = {
      Record{Point{1}, "x", Policy::Parse("RoleA")},
      Record{Point{1}, "y", Policy::Parse("RoleB")},
  };
  EXPECT_THROW(GridTree::Build(mvk_, sk_, domain, dup, rng_.get()),
               std::invalid_argument);
}

TEST_F(GridTreeTest, RejectsOutOfDomainKeys) {
  Domain domain{1, 2};
  std::vector<Record> bad = {Record{Point{7}, "x", Policy::Parse("RoleA")}};
  EXPECT_THROW(GridTree::Build(mvk_, sk_, domain, bad, rng_.get()),
               std::invalid_argument);
  std::vector<Record> wrong_dims = {
      Record{Point{1, 1}, "x", Policy::Parse("RoleA")}};
  EXPECT_THROW(GridTree::Build(mvk_, sk_, domain, wrong_dims, rng_.get()),
               std::invalid_argument);
}

TEST_F(GridTreeTest, SerializationRoundTripServesQueries) {
  GridTree tree = BuildSmall();
  common::ByteWriter w;
  tree.Serialize(&w);
  common::ByteReader r(w.data());
  auto back = GridTree::Deserialize(&r);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back->NodeCount(), tree.NodeCount());

  // The deserialized ADS answers verifiable queries.
  RoleSet roles = {"RoleA"};
  Box range{Point{0, 0}, Point{3, 3}};
  Rng qrng(5);
  Vo vo = BuildRangeVo(*back, mvk_, range, roles, universe_, &qrng);
  std::vector<Record> results;
  VerifyContext ctx(mvk_, back->domain(), roles, universe_);
  ASSERT_TRUE(VerifyOk(VerifyRangeVo(ctx, range, vo, &results)));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].value, "a");
}

TEST_F(GridTreeTest, DeserializeRejectsGarbage) {
  std::vector<std::uint8_t> garbage = {0xff, 0xff, 0xff, 0xff, 1, 2, 3};
  common::ByteReader r(garbage);
  EXPECT_FALSE(GridTree::Deserialize(&r).has_value());

  GridTree tree = BuildSmall();
  common::ByteWriter w;
  tree.Serialize(&w);
  auto bytes = w.data();
  common::ByteReader r2(bytes.data(), bytes.size() / 2);
  EXPECT_FALSE(GridTree::Deserialize(&r2).has_value());
}

// --- Dynamic maintenance (epochs, deltas, replica convergence) --------------

TEST_F(GridTreeTest, ApplyUpdatesAdvancesEpochAndServesQueries) {
  GridTree tree = BuildSmall();
  EXPECT_EQ(tree.epoch(), 0u);
  ASSERT_TRUE(tree.stamp().attested);

  std::vector<AdsUpdateOp> ops;
  ops.push_back({AdsUpdateOp::Kind::kUpsert,
                 Record{Point{2, 2}, "c", Policy::Parse("RoleA")}});
  ops.push_back({AdsUpdateOp::Kind::kDelete,
                 Record{Point{0, 1}, "", Policy{}}});
  AdsDelta delta = tree.ApplyUpdates(mvk_, sk_, ops, rng_.get());
  EXPECT_EQ(delta.from_epoch, 0u);
  EXPECT_EQ(delta.to_epoch, 1u);
  EXPECT_EQ(tree.epoch(), 1u);
  EXPECT_EQ(tree.stamp().epoch, 1u);
  EXPECT_EQ(delta.stamp.epoch, 1u);

  // The inserted record is served; the deleted one reverted to a pseudo leaf.
  const auto& ins = tree.GetNode(tree.LeafAt(Point{2, 2}));
  EXPECT_FALSE(ins.is_pseudo);
  EXPECT_EQ(ins.record.value, "c");
  EXPECT_TRUE(tree.GetNode(tree.LeafAt(Point{0, 1})).is_pseudo);

  // Fresh queries verify at the advanced epoch.
  RoleSet roles = {"RoleA"};
  Box range{Point{0, 0}, Point{3, 3}};
  Rng qrng(9);
  Vo vo = BuildRangeVo(tree, mvk_, range, roles, universe_, &qrng);
  std::vector<Record> results;
  VerifyContext ctx(mvk_, tree.domain(), roles, universe_);
  ctx.expected_epoch = 1;
  VerifyResult r = VerifyRangeVo(ctx, range, vo, &results);
  ASSERT_TRUE(r.ok()) << r.ToString();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].value, "c");
}

TEST_F(GridTreeTest, UpdateResignsOnlyAffectedPaths) {
  GridTree tree = BuildSmall();
  std::vector<AdsUpdateOp> ops = {
      {AdsUpdateOp::Kind::kUpsert,
       Record{Point{1, 1}, "x", Policy::Parse("RoleB")}},
  };
  AdsDelta delta = tree.ApplyUpdates(mvk_, sk_, ops, rng_.get());
  // One touched leaf re-signs its root→leaf path: depth+1 nodes, no more.
  EXPECT_LE(delta.nodes.size(),
            static_cast<std::size_t>(tree.depth() + 1) * ops.size());
  EXPECT_GE(delta.nodes.size(), 1u);
}

TEST_F(GridTreeTest, UpdateCanEditPolicyInPlace) {
  GridTree tree = BuildSmall();
  // Re-upserting an existing key with a new policy is the policy-edit path.
  std::vector<AdsUpdateOp> ops = {
      {AdsUpdateOp::Kind::kUpsert,
       Record{Point{0, 1}, "a", Policy::Parse("RoleA & RoleB")}},
  };
  tree.ApplyUpdates(mvk_, sk_, ops, rng_.get());
  const auto& leaf = tree.GetNode(tree.LeafAt(Point{0, 1}));
  EXPECT_FALSE(leaf.record.policy.Evaluate({"RoleA"}));
  EXPECT_TRUE(leaf.record.policy.Evaluate({"RoleA", "RoleB"}));
}

TEST_F(GridTreeTest, UpdateRejectsOutOfDomainKeys) {
  GridTree tree = BuildSmall();
  std::vector<AdsUpdateOp> ops = {
      {AdsUpdateOp::Kind::kUpsert,
       Record{Point{9, 9}, "x", Policy::Parse("RoleA")}},
  };
  EXPECT_THROW(tree.ApplyUpdates(mvk_, sk_, ops, rng_.get()),
               std::invalid_argument);
  EXPECT_EQ(tree.epoch(), 0u) << "rejected batch must not advance the epoch";
}

TEST_F(GridTreeTest, ReplicaConvergesThroughApplyDelta) {
  GridTree owner_tree = BuildSmall();
  GridTree sp_tree = owner_tree;  // the outsourced replica

  std::vector<AdsUpdateOp> ops = {
      {AdsUpdateOp::Kind::kUpsert,
       Record{Point{2, 0}, "n", Policy::Parse("RoleB")}},
  };
  AdsDelta delta = owner_tree.ApplyUpdates(mvk_, sk_, ops, rng_.get());

  EXPECT_EQ(sp_tree.ApplyDelta(delta), ApplyStatus::kApplied);
  EXPECT_EQ(sp_tree.epoch(), owner_tree.epoch());
  EXPECT_EQ(sp_tree.digest(), owner_tree.digest());
  EXPECT_EQ(sp_tree.GetNode(sp_tree.LeafAt(Point{2, 0})).record.value, "n");

  // Retried frame (duplicate delivery / DO crash recovery): idempotent.
  EXPECT_EQ(sp_tree.ApplyDelta(delta), ApplyStatus::kAlreadyApplied);
  EXPECT_EQ(sp_tree.epoch(), 1u);
}

TEST_F(GridTreeTest, ApplyDeltaRejectsGapsAndTampering) {
  GridTree owner_tree = BuildSmall();
  GridTree sp_tree = owner_tree;

  AdsDelta first = owner_tree.ApplyUpdates(
      mvk_, sk_,
      {{AdsUpdateOp::Kind::kUpsert,
        Record{Point{2, 0}, "n1", Policy::Parse("RoleA")}}},
      rng_.get());
  AdsDelta second = owner_tree.ApplyUpdates(
      mvk_, sk_,
      {{AdsUpdateOp::Kind::kUpsert,
        Record{Point{2, 1}, "n2", Policy::Parse("RoleB")}}},
      rng_.get());

  // Skipping a delta is detected, and the tree is untouched.
  crypto::Digest before = sp_tree.digest();
  EXPECT_EQ(sp_tree.ApplyDelta(second), ApplyStatus::kEpochGap);
  EXPECT_EQ(sp_tree.epoch(), 0u);
  EXPECT_EQ(sp_tree.digest(), before);

  // A patch with a swapped-in signature fails the digest cross-check;
  // validate-then-apply means rejection leaves no half-applied state.
  // (Payload tampering that keeps signatures intact is the transport-level
  // DO auth's job — see VerifyAdsUpdateAuth below.)
  AdsDelta tampered = first;
  ASSERT_GE(tampered.nodes.size(), 2u);
  tampered.nodes.back().sig = tampered.nodes.front().sig;
  EXPECT_EQ(sp_tree.ApplyDelta(tampered), ApplyStatus::kBadPatch);
  EXPECT_EQ(sp_tree.epoch(), 0u);
  EXPECT_EQ(sp_tree.digest(), before);

  // Value tampering leaves the signature digest unchanged, so it must be
  // caught one layer up: the DO auth signature covers every delta byte.
  auto update = SignAdsUpdate(mvk_, sk_, first, rng_.get());
  ASSERT_TRUE(update.has_value());
  ASSERT_TRUE(VerifyAdsUpdateAuth(mvk_, *update));
  for (auto& p : update->delta.nodes) {
    if (p.leaf_kind != 0) {
      p.value += "x";
      break;
    }
  }
  EXPECT_FALSE(VerifyAdsUpdateAuth(mvk_, *update));

  // A patch addressing a node that does not exist is rejected outright.
  AdsDelta bad_addr = first;
  bad_addr.nodes[0].index = 1u << 20;
  EXPECT_EQ(sp_tree.ApplyDelta(bad_addr), ApplyStatus::kBadPatch);

  // The untampered sequence still applies in order.
  EXPECT_EQ(sp_tree.ApplyDelta(first), ApplyStatus::kApplied);
  EXPECT_EQ(sp_tree.ApplyDelta(second), ApplyStatus::kApplied);
  EXPECT_EQ(sp_tree.digest(), owner_tree.digest());
}

TEST_F(GridTreeTest, SerializationCarriesEpochState) {
  GridTree tree = BuildSmall();
  tree.ApplyUpdates(mvk_, sk_,
                    {{AdsUpdateOp::Kind::kUpsert,
                      Record{Point{3, 3}, "z", Policy::Parse("RoleA")}}},
                    rng_.get());
  common::ByteWriter w;
  tree.Serialize(&w);
  common::ByteReader r(w.data());
  auto back = GridTree::Deserialize(&r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch(), 1u);
  EXPECT_EQ(back->digest(), tree.digest());
  EXPECT_EQ(back->stamp().epoch, 1u);
}

}  // namespace
}  // namespace apqa::core
