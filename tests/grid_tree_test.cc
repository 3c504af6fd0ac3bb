// Unit tests for the AP²G-tree structure itself (navigation, policies,
// pseudo records, and the DO → SP serialization of the outsourced ADS).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/journal.h"
#include "core/range_query.h"
#include "core/sp_storage.h"
#include "core/system.h"
#include "reference/abs_unprepared.h"
#include "verify_ok.h"

namespace apqa::core {
namespace {

using NodeKey = std::pair<std::uint32_t, std::uint64_t>;  // (level, index)

// Every node of the tree, root first.
std::vector<GridTree::NodeId> AllNodes(const GridTree& tree) {
  std::vector<GridTree::NodeId> out = {tree.Root()};
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (GridTree::NodeId c : tree.Children(out[i])) out.push_back(c);
  }
  return out;
}

// The signed statement of a node: hash(o)|hash(v) for leaves, hash(gb) for
// internal nodes.
std::vector<std::uint8_t> NodeMessage(const GridTree::Node& node) {
  return node.is_leaf ? RecordMessage(node.record.key, node.record.value)
                      : BoxMessage(node.box);
}

// The structural invariant the incremental re-sign rule must preserve:
// every internal policy is the OR of its children's (recomputed here from
// the definition), and every signature passes the exact ABS verification
// under the node's own message, policy and the epoch it carries: epoch 0
// for boxes, never ahead of the tree's for leaves. `verified` (optional)
// memoizes statements that already passed, so a long batch sequence only
// re-checks new signatures.
void ExpectTreeInvariant(const GridTree& tree, const VerifyKey& mvk,
                         std::set<std::vector<std::uint8_t>>* verified =
                             nullptr) {
  for (GridTree::NodeId id : AllNodes(tree)) {
    const GridTree::Node& node = tree.GetNode(id);
    SCOPED_TRACE("node level " + std::to_string(id.level) + " index " +
                 std::to_string(id.index));
    if (node.is_leaf) {
      EXPECT_EQ(node.policy, node.record.policy);
    } else {
      Policy expect;
      bool first = true;
      for (GridTree::NodeId c : tree.Children(id)) {
        const Policy& cp = tree.GetNode(c).policy;
        expect = first ? cp.ToDnf() : policy::OrCombineDnf(expect, cp);
        first = false;
      }
      EXPECT_EQ(node.policy, expect);
    }
    EXPECT_EQ(node.sig.epoch, 0u) << "a node signature must carry no time";
    std::vector<std::uint8_t> msg = NodeMessage(node);
    common::ByteWriter w;
    w.PutBytes(msg.data(), msg.size());
    w.PutString(node.policy.ToString());
    node.sig.Serialize(&w);
    if (verified != nullptr && verified->count(w.data()) != 0) continue;
    EXPECT_TRUE(abs::VerifyUnprepared(mvk, msg, node.policy, node.sig,
                                      /*exact=*/true));
    if (verified != nullptr) verified->insert(w.data());
  }
}

// OR of every leaf policy under `box`, as a reduced DNF clause set,
// computed from the leaves directly rather than through the children.
std::set<policy::Clause> LeafClauses(const GridTree& tree, const Box& box) {
  std::vector<policy::Clause> all;
  Point p = box.lo;
  for (;;) {
    for (const policy::Clause& c :
         tree.GetNode(tree.LeafAt(p)).policy.DnfClauses()) {
      all.push_back(c);
    }
    std::size_t d = 0;
    for (; d < p.size() && p[d] == box.hi[d]; ++d) p[d] = box.lo[d];
    if (d == p.size()) break;
    ++p[d];
  }
  std::set<policy::Clause> reduced;
  for (const policy::Clause& c : all) {
    bool absorbed = std::any_of(all.begin(), all.end(), [&](const auto& k) {
      return k != c && std::includes(c.begin(), c.end(), k.begin(), k.end());
    });
    if (!absorbed) reduced.insert(c);
  }
  return reduced;
}

// The patch set an update from `before` to `after` must carry: the touched
// leaves, plus every internal node whose leaf-level OR changed.
std::set<NodeKey> ExpectedPatches(const GridTree& before,
                                  const GridTree& after,
                                  const std::vector<AdsUpdateOp>& ops) {
  std::set<NodeKey> out;
  for (const AdsUpdateOp& op : ops) {
    GridTree::NodeId leaf = after.LeafAt(op.record.key);
    out.emplace(leaf.level, leaf.index);
  }
  for (GridTree::NodeId id : AllNodes(after)) {
    if (after.IsLeafLevel(id)) continue;
    const Box& box = after.GetNode(id).box;
    if (LeafClauses(before, box) != LeafClauses(after, box)) {
      out.emplace(id.level, id.index);
    }
  }
  return out;
}

std::vector<std::uint8_t> SigBytes(const GridTree::Node& node) {
  common::ByteWriter w;
  node.sig.Serialize(&w);
  return w.Take();
}

std::vector<std::uint8_t> TreeBytes(const GridTree& tree) {
  common::ByteWriter w;
  tree.Serialize(&w);
  return w.Take();
}

std::set<NodeKey> PatchSet(const AdsDelta& delta) {
  std::set<NodeKey> out;
  for (const NodePatch& p : delta.nodes) out.emplace(p.level, p.index);
  EXPECT_EQ(out.size(), delta.nodes.size()) << "duplicate patch";
  return out;
}

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

  // dims 4 / bits 16 is 2^64 cells, which wraps a 64-bit cell count to 0;
  // the header alone is rejected, before any byte past it is read.
  common::ByteWriter header;
  header.PutU32(4);
  header.PutU32(16);
  std::vector<std::uint8_t> wide = header.data();
  wide.insert(wide.end(), bytes.begin() + 8, bytes.end());
  common::ByteReader r3(wide);
  EXPECT_FALSE(GridTree::Deserialize(&r3).has_value());
  EXPECT_EQ(r3.Remaining(), wide.size() - 8);
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
  const std::vector<std::uint8_t> root_sig =
      SigBytes(tree.GetNode(tree.Root()));
  std::vector<AdsUpdateOp> ops = {
      {AdsUpdateOp::Kind::kUpsert,
       Record{Point{1, 1}, "x", Policy::Parse("RoleB")}},
  };
  AdsDelta delta = tree.ApplyUpdates(mvk_, sk_, ops, rng_.get());
  // The leaf, and its parent, whose OR gains RoleB. The root already
  // covered RoleB through (3,2), so its statement and signature stand.
  ASSERT_EQ(delta.nodes.size(), 2u);
  EXPECT_EQ(delta.nodes[0].level, 2u);
  EXPECT_EQ(delta.nodes[1].level, 1u);
  EXPECT_EQ(SigBytes(tree.GetNode(tree.Root())), root_sig);
}

TEST_F(GridTreeTest, FreshTreeRecomputesToStoredPolicies) {
  // Pins that the skip can fire right after Build: recomputing any
  // internal OR-policy gives the stored one, and every signature verifies.
  GridTree tree = BuildSmall();
  ExpectTreeInvariant(tree, mvk_);
  for (GridTree::NodeId id : AllNodes(tree)) {
    if (tree.IsLeafLevel(id)) continue;
    std::set<policy::Clause> stored;
    for (const auto& c : tree.GetNode(id).policy.DnfClauses()) stored.insert(c);
    EXPECT_EQ(stored, LeafClauses(tree, tree.GetNode(id).box));
  }
}

TEST_F(GridTreeTest, ValueOnlyUpsertPatchesExactlyTheLeaves) {
  GridTree tree = BuildSmall();
  const GridTree before = tree;
  std::vector<AdsUpdateOp> ops = {
      {AdsUpdateOp::Kind::kUpsert,
       Record{Point{0, 1}, "a2", Policy::Parse("RoleA")}},
      {AdsUpdateOp::Kind::kUpsert,
       Record{Point{3, 2}, "b2", Policy::Parse("RoleB")}},
  };
  AdsDelta delta = tree.ApplyUpdates(mvk_, sk_, ops, rng_.get());
  ASSERT_EQ(delta.nodes.size(), ops.size());
  for (const NodePatch& p : delta.nodes) {
    EXPECT_EQ(p.level, static_cast<std::uint32_t>(tree.depth()));
    EXPECT_EQ(p.leaf_kind, 1u);
  }
  // Internal nodes keep their signatures; the stamp moves on.
  for (GridTree::NodeId id : AllNodes(tree)) {
    if (!tree.IsLeafLevel(id)) {
      EXPECT_EQ(SigBytes(tree.GetNode(id)), SigBytes(before.GetNode(id)));
    }
  }
  EXPECT_EQ(tree.stamp().epoch, 1u);
  ExpectTreeInvariant(tree, mvk_);
}

TEST_F(GridTreeTest, PolicyFlippedBackWithinBatchResignsOnlyTheLeaf) {
  // Several ops on one key: the skip compares against the policy from
  // before the batch, not against the previous op's.
  GridTree tree = BuildSmall();
  std::vector<AdsUpdateOp> ops = {
      {AdsUpdateOp::Kind::kUpsert,
       Record{Point{0, 1}, "t", Policy::Parse("RoleB")}},
      {AdsUpdateOp::Kind::kUpsert,
       Record{Point{0, 1}, "a3", Policy::Parse("RoleA")}},
  };
  AdsDelta delta = tree.ApplyUpdates(mvk_, sk_, ops, rng_.get());
  ASSERT_EQ(delta.nodes.size(), 1u);
  EXPECT_EQ(delta.nodes[0].value, "a3");
  ExpectTreeInvariant(tree, mvk_);
}

TEST_F(GridTreeTest, PolicyEditPatchesExactlyTheChangedAncestors) {
  GridTree tree = BuildSmall();
  const GridTree before = tree;
  std::vector<AdsUpdateOp> ops = {
      {AdsUpdateOp::Kind::kUpsert,
       Record{Point{0, 1}, "a", Policy::Parse("RoleA & RoleB")}},
  };
  AdsDelta delta = tree.ApplyUpdates(mvk_, sk_, ops, rng_.get());
  std::set<NodeKey> expect = ExpectedPatches(before, tree, ops);
  EXPECT_EQ(PatchSet(delta), expect);
  // RoleA & RoleB is absorbed nowhere above: the leaf, its parent and the
  // root all change.
  EXPECT_EQ(expect.size(), 3u);
  ExpectTreeInvariant(tree, mvk_);
  // The re-signed root and leaf still carry epoch 0, like kept ones, so
  // neither epoch can date this write or this policy change.
  EXPECT_NE(SigBytes(tree.GetNode(tree.Root())),
            SigBytes(before.GetNode(before.Root())));
  EXPECT_EQ(tree.GetNode(tree.Root()).sig.epoch, 0u);
  EXPECT_EQ(tree.GetNode(tree.LeafAt(Point{0, 1})).sig.epoch, 0u);
}

TEST_F(GridTreeTest, DeleteToPseudoPatchesExactlyTheChangedAncestors) {
  GridTree tree = BuildSmall();
  GridTree replica = tree;
  const GridTree before = tree;
  std::vector<AdsUpdateOp> ops = {
      {AdsUpdateOp::Kind::kDelete, Record{Point{0, 1}, "", Policy{}}},
  };
  AdsDelta delta = tree.ApplyUpdates(mvk_, sk_, ops, rng_.get());
  EXPECT_EQ(PatchSet(delta), ExpectedPatches(before, tree, ops));
  ASSERT_FALSE(delta.nodes.empty());
  EXPECT_EQ(delta.nodes[0].leaf_kind, 2u);
  const auto& leaf = tree.GetNode(tree.LeafAt(Point{0, 1}));
  EXPECT_TRUE(leaf.is_pseudo);
  EXPECT_EQ(leaf.policy.ToString(), kPseudoRole);
  // RoleA was only reachable through (0,1): the root loses it too.
  EXPECT_FALSE(tree.GetNode(tree.Root()).policy.Evaluate({"RoleA"}));
  ExpectTreeInvariant(tree, mvk_);
  ASSERT_EQ(replica.ApplyDelta(delta), ApplyStatus::kApplied);
  EXPECT_EQ(replica.digest(), tree.digest());
  ExpectTreeInvariant(replica, mvk_);
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

TEST_F(GridTreeTest, UpdateRejectsOutOfDomainKeyBeforeAnyLeafChanges) {
  // The valid op comes first: the batch must still throw before it lands.
  GridTree tree = BuildSmall();
  const std::vector<std::uint8_t> bytes = TreeBytes(tree);
  std::vector<AdsUpdateOp> ops = {
      {AdsUpdateOp::Kind::kUpsert,
       Record{Point{0, 1}, "changed", Policy::Parse("RoleB")}},
      {AdsUpdateOp::Kind::kUpsert,
       Record{Point{9, 9}, "x", Policy::Parse("RoleA")}},
  };
  EXPECT_THROW(tree.ApplyUpdates(mvk_, sk_, ops, rng_.get()),
               std::invalid_argument);
  EXPECT_EQ(TreeBytes(tree), bytes);
  ExpectTreeInvariant(tree, mvk_);
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

// 50 seeded batches of mixed upserts (value-only and policy-changing) and
// deletes. After each: the invariant holds on the DO tree and on the
// ApplyDelta replica, the patch set is exactly the independently computed
// one, and range VOs over the root and over a node that kept its signature
// carry epoch 0 and verify at the new expected epoch. At the end, WAL
// recovery lands on the same digest.
TEST(GridTreeMixedBatchTest, SeededBatchesKeepInvariantReplicaAndRecovery) {
  const RoleSet universe = {"RoleA", "RoleB", "RoleC", "RoleD"};
  DataOwner owner(universe, Domain{2, 2}, /*seed=*/4242);
  const VerifyKey& mvk = owner.keys().mvk;
  // RoleC is rare, so the root's OR gains and loses it over the run.
  const std::vector<std::string> policies = {
      "RoleA", "RoleB", "RoleA & RoleB", "RoleA | RoleB", "RoleA", "RoleC"};
  GridTree do_tree = owner.BuildAds(
      {Record{Point{0, 0}, "r0", Policy::Parse("RoleA")},
       Record{Point{2, 3}, "r1", Policy::Parse("RoleB")},
       Record{Point{3, 1}, "r2", Policy::Parse("RoleA | RoleB")}});
  const GridTree genesis = do_tree;
  GridTree replica = do_tree;
  common::MemFile snap, wal;
  SpStateStore store(&snap, &wal);
  std::set<std::vector<std::uint8_t>> verified;
  ExpectTreeInvariant(do_tree, mvk, &verified);

  Rng rng(99);
  int kept_node_vos = 0, root_patches = 0;
  for (int b = 0; b < 50; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    std::vector<AdsUpdateOp> ops;
    int n = 1 + static_cast<int>(rng.NextU64() % 3);
    for (int i = 0; i < n; ++i) {
      Point key{static_cast<std::uint32_t>(rng.NextU64() % 4),
                static_cast<std::uint32_t>(rng.NextU64() % 4)};
      const GridTree::Node& leaf = do_tree.GetNode(do_tree.LeafAt(key));
      std::uint64_t pick = rng.NextU64() % 4;
      if (pick == 0) {
        ops.push_back({AdsUpdateOp::Kind::kDelete, Record{key, "", Policy{}}});
      } else if (pick == 1 && !leaf.is_pseudo) {
        // Value-only overwrite: the perfbench shape.
        ops.push_back({AdsUpdateOp::Kind::kUpsert,
                       Record{key, "v" + std::to_string(b), leaf.policy}});
      } else {
        ops.push_back(
            {AdsUpdateOp::Kind::kUpsert,
             Record{key, "p" + std::to_string(b),
                    Policy::Parse(policies[rng.NextU64() % policies.size()])}});
      }
    }
    const GridTree before = do_tree;
    SignedAdsUpdate update = owner.ApplyUpdates(&do_tree, ops);
    ASSERT_TRUE(VerifyAdsUpdateAuth(mvk, update));
    std::set<NodeKey> patched = PatchSet(update.delta);
    EXPECT_EQ(patched, ExpectedPatches(before, do_tree, ops));
    root_patches += static_cast<int>(patched.count({0, 0}));
    ExpectTreeInvariant(do_tree, mvk, &verified);

    ASSERT_EQ(replica.ApplyDelta(update.delta), ApplyStatus::kApplied);
    EXPECT_EQ(replica.digest(), do_tree.digest());
    ExpectTreeInvariant(replica, mvk, &verified);
    common::ByteWriter w;
    update.Serialize(&w);
    ASSERT_TRUE(store.AppendApplied(w.Take(), update.delta.to_epoch));

    // A user who can read nothing queries the whole domain and the box of
    // an internal node this batch did not re-sign: each VO is one relaxed
    // box signature at epoch 0, whether or not the DO re-signed the node,
    // and verifies at the new expected epoch.
    std::vector<GridTree::NodeId> probes = {replica.Root()};
    for (GridTree::NodeId id : AllNodes(replica)) {
      if (!replica.IsLeafLevel(id) &&
          patched.count({static_cast<std::uint32_t>(id.level), id.index}) ==
              0) {
        probes.push_back(id);
        ++kept_node_vos;
        break;
      }
    }
    for (GridTree::NodeId id : probes) {
      const Box& box = replica.GetNode(id).box;
      const RoleSet roles = {"RoleD"};
      Rng qrng(b);
      Vo vo = BuildRangeVo(replica, mvk, box, roles, universe, &qrng);
      ASSERT_EQ(vo.entries.size(), 1u);
      const auto* entry = std::get_if<InaccessibleBoxEntry>(&vo.entries[0]);
      ASSERT_NE(entry, nullptr);
      EXPECT_EQ(entry->aps_sig.epoch, 0u);
      std::vector<Record> results;
      VerifyContext ctx(mvk, replica.domain(), roles, universe);
      ctx.expected_epoch = replica.epoch();
      EXPECT_TRUE(VerifyOk(VerifyRangeVo(ctx, box, vo, &results)));
      EXPECT_TRUE(results.empty());
    }
  }
  EXPECT_GT(kept_node_vos, 0) << "no batch kept an internal signature";
  EXPECT_GT(root_patches, 0) << "no batch changed the root's OR";
  EXPECT_LT(root_patches, 50) << "every batch changed the root's OR";

  SpStateStore reopened(&snap, &wal);
  RecoveryStats rs;
  GridTree recovered = reopened.Recover(owner.keys(), genesis, &rs);
  EXPECT_EQ(rs.wal_applied, 50u);
  EXPECT_EQ(recovered.epoch(), do_tree.epoch());
  EXPECT_EQ(recovered.digest(), do_tree.digest());
  ExpectTreeInvariant(recovered, mvk, &verified);
}

}  // namespace
}  // namespace apqa::core
