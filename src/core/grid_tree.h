// AP²G-tree: the access-policy-preserving grid tree (paper §6.1).
//
// A *full* 2^d-ary tree over the power-of-two query-attribute domain. Every
// unit cell is a leaf — cells without a real record hold a pseudo record
// with policy Role_∅ — so the tree shape reveals nothing about the data
// distribution. Each leaf carries the APP signature of its record; each
// internal node carries the OR of its children's policies (in reduced DNF)
// and an APP signature over its grid box.
//
// Synchronization: GridTree carries no lock of its own. Concurrent query
// and ApplyDelta access is serialized externally — in the query service by
// SpServer's sp_mu_ (rank kServerSp, see common/lock_rank.h); single-party
// users (DO build paths, tests) access it from one thread.
#ifndef APQA_CORE_GRID_TREE_H_
#define APQA_CORE_GRID_TREE_H_

#include <optional>
#include <vector>

#include "common/serde.h"
#include "core/ads_update.h"
#include "core/app_signature.h"
#include "core/record.h"
#include "core/thread_pool.h"

namespace apqa::core {

// Node addressing of a full 2^d-ary grid tree over a power-of-two domain,
// shared by the AP²G-tree and the duplicate tree (core/duplicates.h).
class GridShape {
 public:
  // Node address: level 0 is the root; level `bits` holds the unit cells.
  struct NodeId {
    int level = 0;
    std::uint64_t index = 0;  // row-major over the level's grid
  };

  const Domain& domain() const { return domain_; }
  NodeId Root() const { return {0, 0}; }
  bool IsLeafLevel(NodeId id) const { return id.level == domain_.bits; }
  // 2^(level·dims) nodes.
  std::uint64_t LevelSize(int level) const;
  std::vector<NodeId> Children(NodeId id) const;
  NodeId Parent(NodeId id) const;
  // Leaf node covering a unit cell.
  NodeId LeafAt(const Point& p) const;
  // The grid box of a node: a 2^(bits-level) cube.
  Box NodeBox(NodeId id) const;

 protected:
  Domain domain_;

 private:
  // Grid coordinates of a node within its level.
  std::vector<std::uint32_t> Coords(NodeId id) const;
  std::uint64_t IndexOf(int level, const std::vector<std::uint32_t>& c) const;
};

// The levels of a grid tree whose nodes carry a `box`, an `is_leaf` flag and
// a `policy`.
template <typename NodeT>
class GridLevels : public GridShape {
 public:
  const NodeT& GetNode(NodeId id) const { return levels_[id.level][id.index]; }

 protected:
  // Sizes level `level` of levels_ and sets its nodes' boxes and leaf flags.
  void LayOutLevel(int level) {
    auto& nodes = levels_[level];
    nodes.resize(LevelSize(level));
    for (std::uint64_t i = 0; i < nodes.size(); ++i) {
      nodes[i].box = NodeBox(NodeId{level, i});
      nodes[i].is_leaf = level == domain_.bits;
    }
  }

  // OR of the children's policies in reduced DNF (Definition 6.1).
  Policy OrOfChildren(NodeId id) const {
    Policy out;
    bool first = true;
    for (NodeId child : Children(id)) {
      const Policy& cp = GetNode(child).policy;
      out = first ? cp.ToDnf() : policy::OrCombineDnf(out, cp);
      first = false;
    }
    return out;
  }

  std::vector<std::vector<NodeT>> levels_;  // levels_[L]: LevelSize(L) nodes
};

struct GridTreeNode {
  Box box;
  Policy policy;
  Signature sig;
  bool is_leaf = false;
  bool is_pseudo = false;  // leaf without a real record
  Record record;           // leaf payload (pseudo records hold a random value)
};

class GridTree : public GridLevels<GridTreeNode> {
 public:
  using Node = GridTreeNode;

  // Builds and signs the tree (DO side). Duplicate keys are rejected
  // (Appendix E handles duplicates via a virtual dimension; see
  // core/duplicates.h). `pool` may be null for single-threaded signing.
  static GridTree Build(const VerifyKey& mvk, const SigningKey& sk_do,
                        const Domain& domain, const std::vector<Record>& records,
                        Rng* rng, ThreadPool* pool = nullptr);

  int depth() const { return domain_.bits; }

  // --- Dynamic maintenance (ROADMAP item 2) -------------------------------
  //
  // The tree carries a monotone epoch counter, an incremental XOR set-hash
  // digest over its signature multiset, and the DO's freshness attestation
  // for (epoch, digest). Build mints everything at epoch 0; each update
  // batch advances the epoch by one.

  std::uint64_t epoch() const { return epoch_; }
  const crypto::Digest& digest() const { return digest_; }
  const EpochStamp& stamp() const { return stamp_; }

  // DO side: applies a batch of upserts/deletes at epoch()+1 and re-attests
  // the new digest. Every touched leaf is re-signed (at epoch 0, see
  // SignApp); an internal node is re-signed only if the OR of its
  // children's policies changed, since its signature covers nothing else.
  // The re-signs run as one signing stage. A value-only batch therefore
  // costs one signature per touched key, and a policy edit at most depth
  // more per key. Returns the delta the SP replica must apply. Throws
  // std::invalid_argument on keys outside the domain, before any node
  // changes.
  AdsDelta ApplyUpdates(const VerifyKey& mvk, const SigningKey& sk_do,
                        const std::vector<AdsUpdateOp>& ops, Rng* rng);

  // SP side: validates the delta against the current state (epoch
  // continuity, patch addressing, digest cross-check) and only then
  // mutates — a rejected delta leaves the tree byte-identical, so a torn
  // or hostile frame can never leave half-applied state behind.
  ApplyStatus ApplyDelta(const AdsDelta& delta);

  // DO → SP transfer of the outsourced ADS: full serialization including
  // every node policy and signature (boxes are implied by the grid shape),
  // plus the epoch and its attestation.
  void Serialize(common::ByteWriter* w) const;
  static std::optional<GridTree> Deserialize(common::ByteReader* r);

  std::size_t NodeCount() const;
  std::size_t LeafCount() const { return levels_.back().size(); }
  // Serialized ADS size in bytes, split into tree structure (boxes +
  // policies) and signatures — the two components of Table 1.
  void SerializedSize(std::size_t* structure_bytes,
                      std::size_t* signature_bytes) const;

 private:
  // XOR set-hash contribution of one node's signature; the tree digest is
  // the XOR over all nodes, so single-node replacement is O(1) digest work.
  crypto::Digest NodeContribution(int level, std::uint64_t index,
                                  const Signature& sig) const;
  void RecomputeDigest();

  std::uint64_t epoch_ = 0;
  crypto::Digest digest_{};
  EpochStamp stamp_;
};

}  // namespace apqa::core

#endif  // APQA_CORE_GRID_TREE_H_
