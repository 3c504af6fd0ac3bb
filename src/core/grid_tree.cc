#include "core/grid_tree.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "common/serde.h"
#include "crypto/serde.h"
#include "crypto/sha256.h"

namespace apqa::core {

namespace {

// Queues the APP signature of a grid node: its record's on a leaf (whose
// policy is the record's), its box's on an internal node.
void SignNode(abs::SignBatch* batch, const VerifyKey& mvk,
              const SigningKey& sk_do, const GridTree::Node& node, Rng* rng) {
  SignApp(batch, mvk, sk_do,
          node.is_leaf ? RecordMessage(node.record.key, node.record.value)
                       : BoxMessage(node.box),
          node.policy, rng);
}

}  // namespace

std::vector<std::uint32_t> GridShape::Coords(NodeId id) const {
  std::vector<std::uint32_t> c(domain_.dims);
  std::uint64_t side = std::uint64_t{1} << id.level;
  std::uint64_t idx = id.index;
  for (int d = domain_.dims - 1; d >= 0; --d) {
    c[d] = static_cast<std::uint32_t>(idx % side);
    idx /= side;
  }
  return c;
}

std::uint64_t GridShape::IndexOf(int level,
                                 const std::vector<std::uint32_t>& c) const {
  std::uint64_t side = std::uint64_t{1} << level;
  std::uint64_t idx = 0;
  for (int d = 0; d < domain_.dims; ++d) idx = idx * side + c[d];
  return idx;
}

std::uint64_t GridShape::LevelSize(int level) const {
  // One shift per dimension: a hostile ADS header can claim dims · level
  // ≥ 64, where a single shift would be undefined; the product wraps.
  std::uint64_t n = 1;
  for (int d = 0; d < domain_.dims; ++d) n <<= level;
  return n;
}

std::vector<GridShape::NodeId> GridShape::Children(NodeId id) const {
  std::vector<NodeId> out;
  if (IsLeafLevel(id)) return out;
  std::vector<std::uint32_t> c = Coords(id);
  int n = 1 << domain_.dims;
  out.reserve(n);
  for (int mask = 0; mask < n; ++mask) {
    std::vector<std::uint32_t> cc(domain_.dims);
    for (int d = 0; d < domain_.dims; ++d) {
      cc[d] = 2 * c[d] + ((mask >> d) & 1);
    }
    out.push_back(NodeId{id.level + 1, IndexOf(id.level + 1, cc)});
  }
  return out;
}

GridShape::NodeId GridShape::Parent(NodeId id) const {
  std::vector<std::uint32_t> c = Coords(id);
  for (auto& x : c) x /= 2;
  return NodeId{id.level - 1, IndexOf(id.level - 1, c)};
}

GridShape::NodeId GridShape::LeafAt(const Point& p) const {
  std::vector<std::uint32_t> c(p.begin(), p.end());
  return NodeId{domain_.bits, IndexOf(domain_.bits, c)};
}

Box GridShape::NodeBox(NodeId id) const {
  std::uint32_t cell_side = std::uint32_t{1} << (domain_.bits - id.level);
  Box box;
  box.lo = Coords(id);
  box.hi.resize(box.lo.size());
  for (std::size_t d = 0; d < box.lo.size(); ++d) {
    box.lo[d] *= cell_side;
    box.hi[d] = box.lo[d] + cell_side - 1;
  }
  return box;
}

crypto::Digest GridTree::NodeContribution(int level, std::uint64_t index,
                                          const Signature& sig) const {
  // Position-bound so swapping two nodes' signatures changes the digest.
  static constexpr char kTag[] = "APQA/node/v1";
  common::ByteWriter w;
  w.PutBytes(kTag, sizeof(kTag) - 1);
  w.PutU32(static_cast<std::uint32_t>(level));
  w.PutU64(index);
  sig.Serialize(&w);
  return crypto::Sha256::Hash(w.data().data(), w.data().size());
}

void GridTree::RecomputeDigest() {
  digest_.fill(0);
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    for (std::uint64_t i = 0; i < levels_[level].size(); ++i) {
      crypto::Digest c = NodeContribution(static_cast<int>(level), i,
                                          levels_[level][i].sig);
      for (std::size_t b = 0; b < digest_.size(); ++b) digest_[b] ^= c[b];
    }
  }
}

std::size_t GridTree::NodeCount() const {
  std::size_t n = 0;
  for (const auto& level : levels_) n += level.size();
  return n;
}

void GridTree::SerializedSize(std::size_t* structure_bytes,
                              std::size_t* signature_bytes) const {
  std::size_t structure = 0, sigs = 0;
  for (const auto& level : levels_) {
    for (const Node& node : level) {
      structure += 8 * node.box.lo.size();  // box coordinates
      structure += node.policy.ToString().size();
      if (node.is_leaf) structure += node.record.value.size();
      sigs += node.sig.SerializedSize();
    }
  }
  *structure_bytes = structure;
  *signature_bytes = sigs;
}

void GridTree::Serialize(common::ByteWriter* w) const {
  w->PutU32(static_cast<std::uint32_t>(domain_.dims));
  w->PutU32(static_cast<std::uint32_t>(domain_.bits));
  w->PutU64(epoch_);
  stamp_.Serialize(w);
  for (const auto& level : levels_) {
    for (const Node& node : level) {
      w->PutString(node.policy.ToString());
      node.sig.Serialize(w);
      if (node.is_leaf) {
        w->PutU8(node.is_pseudo ? 1 : 0);
        w->PutString(node.record.value);
      }
    }
  }
}

std::optional<GridTree> GridTree::Deserialize(common::ByteReader* r) {
  crypto::PointAdmission admit(r);
  GridTree tree;
  tree.domain_.dims = static_cast<int>(r->GetU32());
  tree.domain_.bits = static_cast<int>(r->GetU32());
  // At most 2^22 cells. Capped on dims * bits, not on CellCount(), which
  // wraps to 0 at 2^64 cells.
  if (!r->ok() || tree.domain_.dims < 1 || tree.domain_.dims > 8 ||
      tree.domain_.bits < 1 || tree.domain_.bits > 16 ||
      tree.domain_.dims * tree.domain_.bits > 22) {
    return std::nullopt;
  }
  tree.epoch_ = r->GetU64();
  tree.stamp_ = EpochStamp::DeserializeRaw(r);
  if (!r->ok()) return std::nullopt;
  tree.levels_.resize(tree.domain_.bits + 1);
  for (int level = 0; level <= tree.domain_.bits; ++level) {
    // A node costs at least a 4-byte policy length prefix plus a minimal
    // signature on the wire; refuse to allocate more nodes than the
    // remaining bytes could possibly encode (allocation-bomb guard).
    if (!r->CheckCount(tree.LevelSize(level),
                       4 + Signature::kMinSerializedSize)) {
      return std::nullopt;
    }
    tree.LayOutLevel(level);
    for (Node& node : tree.levels_[level]) {
      auto parsed = Policy::TryParse(r->GetString());
      if (!parsed.has_value()) return std::nullopt;
      node.policy = std::move(*parsed);
      node.sig = Signature::Deserialize(r);
      if (node.is_leaf) {
        node.is_pseudo = r->GetU8() != 0;
        node.record.key = node.box.lo;
        node.record.value = r->GetString();
        node.record.policy = node.policy;
      }
      if (!r->ok()) return std::nullopt;
    }
  }
  // The digest is derivable state; an SP replica rebuilds it so later
  // deltas can be cross-checked incrementally.
  tree.RecomputeDigest();
  return tree;
}

GridTree GridTree::Build(const VerifyKey& mvk, const SigningKey& sk_do,
                         const Domain& domain,
                         const std::vector<Record>& records, Rng* rng,
                         ThreadPool* pool) {
  GridTree tree;
  tree.domain_ = domain;
  tree.levels_.resize(domain.bits + 1);

  std::map<Point, const Record*> by_key;
  for (const Record& r : records) {
    if (!domain.ContainsPoint(r.key)) {
      throw std::invalid_argument("record key outside domain");
    }
    if (!by_key.emplace(r.key, &r).second) {
      throw std::invalid_argument(
          "duplicate query key; use the duplicates module (Appendix E)");
    }
  }

  // Leaf level: one node per unit cell.
  int bits = domain.bits;
  tree.LayOutLevel(bits);
  Policy pseudo_policy = Policy::Var(kPseudoRole);
  for (Node& node : tree.levels_[bits]) {
    auto it = by_key.find(node.box.lo);
    if (it != by_key.end()) {
      node.is_pseudo = false;
      node.record = *it->second;
    } else {
      node.is_pseudo = true;
      node.record.key = node.box.lo;
      auto bytes = rng->Bytes(16);
      node.record.value.assign(bytes.begin(), bytes.end());
      node.record.policy = pseudo_policy;
    }
    node.policy = node.record.policy;
  }

  // Internal levels bottom-up: policy = OR of children (reduced DNF).
  for (int level = bits - 1; level >= 0; --level) {
    tree.LayOutLevel(level);
    auto& nodes = tree.levels_[level];
    for (std::uint64_t i = 0; i < nodes.size(); ++i) {
      nodes[i].policy = tree.OrOfChildren(NodeId{level, i});
    }
  }

  // Sign every node in level order through one signing stage: the draws
  // follow that order whatever the pool, and only the multiplies fan out.
  std::vector<Node*> order;
  order.reserve(tree.NodeCount());
  abs::SignBatch batch(
      [&order](std::size_t i) -> Signature& { return order[i]->sig; },
      FanOut(pool));
  for (auto& level : tree.levels_) {
    for (Node& node : level) {
      order.push_back(&node);
      SignNode(&batch, mvk, sk_do, node, rng);
    }
  }
  batch.Run();

  tree.RecomputeDigest();
  tree.stamp_ = MakeEpochStamp(mvk, sk_do, /*epoch=*/0, tree.digest_, rng);
  return tree;
}

AdsDelta GridTree::ApplyUpdates(const VerifyKey& mvk, const SigningKey& sk_do,
                                const std::vector<AdsUpdateOp>& ops,
                                Rng* rng) {
  const std::uint64_t to_epoch = epoch_ + 1;
  Policy pseudo_policy = Policy::Var(kPseudoRole);

  // Check every key before the first leaf mutates, so a rejected batch
  // leaves the tree untouched.
  for (const AdsUpdateOp& op : ops) {
    if (!domain_.ContainsPoint(op.record.key)) {
      throw std::invalid_argument("update key outside domain");
    }
  }

  // Mutate the touched leaves in place, remembering each one's policy from
  // before the batch (a key may be hit by several ops).
  int bits = domain_.bits;
  std::map<std::uint64_t, Policy> touched;
  for (const AdsUpdateOp& op : ops) {
    NodeId leaf_id = LeafAt(op.record.key);
    Node& leaf = levels_[bits][leaf_id.index];
    touched.emplace(leaf_id.index, leaf.policy);
    if (op.kind == AdsUpdateOp::Kind::kUpsert) {
      leaf.is_pseudo = false;
      leaf.record = op.record;
    } else {
      // Deletion restores the indistinguishable pseudo state: Role_∅ policy
      // over a fresh random payload, exactly as Build mints empty cells.
      leaf.is_pseudo = true;
      leaf.record.key = leaf.box.lo;
      auto bytes = rng->Bytes(16);
      leaf.record.value.assign(bytes.begin(), bytes.end());
      leaf.record.policy = pseudo_policy;
    }
    leaf.policy = leaf.record.policy;
  }

  // Queues the re-sign of one node (at epoch 0, leaf or box; see SignApp)
  // on one signing stage and takes its old signature out of the digest.
  std::vector<std::pair<int, std::uint64_t>> resigned;
  abs::SignBatch batch([&](std::size_t k) -> Signature& {
    return levels_[resigned[k].first][resigned[k].second].sig;
  });
  auto resign = [&](int level, std::uint64_t i) {
    Node& node = levels_[level][i];
    crypto::Digest old_c = NodeContribution(level, i, node.sig);
    for (std::size_t b = 0; b < digest_.size(); ++b) digest_[b] ^= old_c[b];
    resigned.emplace_back(level, i);
    SignNode(&batch, mvk, sk_do, node, rng);
  };

  // A leaf signature covers the record payload, so every touched leaf is
  // re-signed. An internal node's signature covers only its box and the OR
  // of its children's policies: it is re-signed only when that OR changed,
  // and only then can its own parent's OR change. Unchanged statements keep
  // their signatures, which stay valid; freshness is the EpochStamp's job.
  // Node signatures all carry epoch 0, so no single VO dates the last
  // re-sign.
  std::set<std::uint64_t> changed;
  for (const auto& [i, before] : touched) {
    resign(bits, i);
    if (levels_[bits][i].policy != before) changed.insert(i);
  }
  for (int level = bits - 1; level >= 0 && !changed.empty(); --level) {
    std::set<std::uint64_t> parents;
    for (std::uint64_t child : changed) {
      parents.insert(Parent(NodeId{level + 1, child}).index);
    }
    changed.clear();
    for (std::uint64_t i : parents) {
      Policy policy = OrOfChildren(NodeId{level, i});
      Node& node = levels_[level][i];
      if (policy == node.policy) continue;
      node.policy = std::move(policy);
      resign(level, i);
      changed.insert(i);
    }
  }

  // Fold each new signature into the digest and emit its patch.
  batch.Run();
  AdsDelta delta;
  delta.from_epoch = epoch_;
  delta.to_epoch = to_epoch;
  for (const auto& [level, i] : resigned) {
    const Node& node = levels_[level][i];
    crypto::Digest new_c = NodeContribution(level, i, node.sig);
    for (std::size_t b = 0; b < digest_.size(); ++b) digest_[b] ^= new_c[b];

    NodePatch patch;
    patch.level = static_cast<std::uint32_t>(level);
    patch.index = i;
    patch.policy = node.policy;
    patch.sig = node.sig;
    if (node.is_leaf) {
      patch.leaf_kind = node.is_pseudo ? 2 : 1;
      patch.value = node.record.value;
    }
    delta.nodes.push_back(std::move(patch));
  }

  epoch_ = to_epoch;
  stamp_ = MakeEpochStamp(mvk, sk_do, to_epoch, digest_, rng);
  delta.stamp = stamp_;
  return delta;
}

ApplyStatus GridTree::ApplyDelta(const AdsDelta& delta) {
  if (delta.to_epoch <= epoch_) return ApplyStatus::kAlreadyApplied;
  if (delta.from_epoch != epoch_ || delta.to_epoch != epoch_ + 1) {
    return ApplyStatus::kEpochGap;
  }

  // Validate-then-apply: every check below runs before any node mutates, so
  // a rejected delta leaves the tree untouched.
  std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
  crypto::Digest next = digest_;
  for (const NodePatch& p : delta.nodes) {
    if (p.level >= levels_.size()) return ApplyStatus::kBadPatch;
    if (p.index >= levels_[p.level].size()) return ApplyStatus::kBadPatch;
    bool is_leaf_level = static_cast<int>(p.level) == domain_.bits;
    if (is_leaf_level != (p.leaf_kind != 0)) return ApplyStatus::kBadPatch;
    if (!seen.emplace(p.level, p.index).second) return ApplyStatus::kBadPatch;
    crypto::Digest old_c = NodeContribution(
        static_cast<int>(p.level), p.index, levels_[p.level][p.index].sig);
    crypto::Digest new_c =
        NodeContribution(static_cast<int>(p.level), p.index, p.sig);
    for (std::size_t b = 0; b < next.size(); ++b) {
      next[b] ^= old_c[b] ^ new_c[b];
    }
  }
  // Cross-check the post-update digest against the DO's attestation: a torn
  // or tampered patch list cannot silently land even if the transport-level
  // auth check was skipped.
  if (!delta.stamp.attested || delta.stamp.epoch != delta.to_epoch ||
      delta.stamp.ads_digest != next) {
    return ApplyStatus::kBadPatch;
  }

  for (const NodePatch& p : delta.nodes) {
    Node& node = levels_[p.level][p.index];
    node.policy = p.policy;
    node.sig = p.sig;
    if (node.is_leaf) {
      node.is_pseudo = p.leaf_kind == 2;
      node.record.key = node.box.lo;
      node.record.value = p.value;
      node.record.policy = p.policy;
    }
  }
  digest_ = next;
  epoch_ = delta.to_epoch;
  stamp_ = delta.stamp;
  return ApplyStatus::kApplied;
}

}  // namespace apqa::core
