#include "core/kd_tree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <set>
#include <stdexcept>

#include "core/parallel_verify.h"
#include "core/range_query.h"
#include "crypto/serde.h"

namespace apqa::core {

namespace {

using ClauseSet = std::set<policy::Clause>;

ClauseSet Clauses(const Policy& p) {
  auto v = p.DnfClauses();
  return ClauseSet(v.begin(), v.end());
}

std::size_t IntersectionSize(const ClauseSet& a, const ClauseSet& b) {
  std::size_t n = 0;
  for (const auto& c : a) n += b.count(c);
  return n;
}

ClauseSet Union(const ClauseSet& a, const ClauseSet& b) {
  ClauseSet u = a;
  u.insert(b.begin(), b.end());
  return u;
}

}  // namespace

std::vector<std::uint8_t> KdLeafMessage(const Box& region, const Point& key,
                                        const std::string& value) {
  return KdLeafMessageFromHash(region, key,
                               crypto::Sha256::Hash(value.data(), value.size()));
}

std::vector<std::uint8_t> KdLeafMessageFromHash(const Box& region,
                                                const Point& key,
                                                const Digest& value_hash) {
  std::vector<std::uint8_t> msg = BoxMessage(region);
  std::vector<std::uint8_t> rm = RecordMessageFromHash(key, value_hash);
  msg.insert(msg.end(), rm.begin(), rm.end());
  return msg;
}

std::size_t KdTree::SplitPosition(const std::vector<Policy>& policies) {
  std::size_t n = policies.size();
  std::vector<ClauseSet> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = Clauses(policies[i]);
  if (n <= 1) return 0;
  if (n == 2) return 1;
  if (n == 3) {
    return IntersectionSize(x[0], x[1]) < IntersectionSize(x[1], x[2]) ? 1 : 2;
  }
  // Algorithm 7 recursion, iterative form: maintain the best split of the
  // prefix and compare against splitting just before the new element.
  std::size_t split = IntersectionSize(x[0], x[1]) < IntersectionSize(x[1], x[2])
                          ? 1
                          : 2;
  // Prefix unions to evaluate the two candidate objectives cheaply.
  std::vector<ClauseSet> prefix(n);
  prefix[0] = x[0];
  for (std::size_t i = 1; i < n; ++i) prefix[i] = Union(prefix[i - 1], x[i]);
  for (std::size_t m = 4; m <= n; ++m) {
    // Candidate A: keep previous split x' of the first m-1 policies:
    //   a = |(X_1..x') ∩ (X_{x'+1}..m-1)|
    ClauseSet mid;
    for (std::size_t i = split; i + 1 <= m - 1; ++i) mid = Union(mid, x[i]);
    std::size_t a = IntersectionSize(prefix[split - 1], mid);
    // Candidate B: split before the last element: b = |mid' ∩ X_m| where
    // mid' = X_{x'+1}..m-1.
    std::size_t b = IntersectionSize(mid, x[m - 1]);
    if (a >= b) split = m - 1;
  }
  return split;
}

int KdTree::BuildNode(const VerifyKey& mvk, const SigningKey& sk_do,
                      const Box& region, std::vector<Record> records,
                      int depth, int max_policy_depth, Rng* rng,
                      abs::SignBatch* batch, std::vector<int>* queued) {
  int idx = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  {
    Node& node = nodes_[idx];
    node.region = region;

    if (records.size() <= 1) {
      node.is_leaf = true;
      if (records.empty()) {
        node.is_pseudo = true;
        node.record.key = region.lo;
        auto bytes = rng->Bytes(16);
        node.record.value.assign(bytes.begin(), bytes.end());
        node.record.policy = Policy::Var(kPseudoRole);
      } else {
        node.record = std::move(records[0]);
      }
      node.policy = node.record.policy;
      queued->push_back(idx);
      SignApp(batch, mvk, sk_do,
              KdLeafMessage(region, node.record.key, node.record.value),
              node.policy, rng);
      return idx;
    }
  }

  // Choose a split dimension (cycling) with at least two distinct
  // coordinates.
  int dims = domain_.dims;
  int dim = -1;
  for (int probe = 0; probe < dims; ++probe) {
    int d = (depth + probe) % dims;
    std::uint32_t lo = records[0].key[d], hi = records[0].key[d];
    for (const auto& r : records) {
      lo = std::min(lo, r.key[d]);
      hi = std::max(hi, r.key[d]);
    }
    if (lo != hi) {
      dim = d;
      break;
    }
  }
  if (dim < 0) {
    throw std::invalid_argument(
        "duplicate keys are not supported by the AP2kd-tree");
  }

  std::sort(records.begin(), records.end(),
            [dim](const Record& a, const Record& b) {
              return a.key[dim] < b.key[dim];
            });

  std::uint32_t split_coord;  // left half is [lo, split_coord - 1]
  std::size_t left_count;
  if (depth < max_policy_depth) {
    // Policy-aware split: group records by distinct coordinate, apply
    // Algorithm 7 over the groups' OR-policies, split between groups.
    std::vector<Policy> group_policies;
    std::vector<std::size_t> group_end;  // exclusive record index
    for (std::size_t i = 0; i < records.size();) {
      std::size_t j = i;
      Policy p = records[i].policy;
      while (++j < records.size() &&
             records[j].key[dim] == records[i].key[dim]) {
        p = policy::OrCombineDnf(p, records[j].policy);
      }
      group_policies.push_back(std::move(p));
      group_end.push_back(j);
      i = j;
    }
    std::size_t g = group_policies.size() == 1
                        ? 1
                        : SplitPosition(group_policies);  // 1-based group count
    left_count = group_end[g - 1];
    split_coord = records[left_count].key[dim];
  } else {
    // Midpoint (grid) split to bound depth.
    split_coord =
        region.lo[dim] + (region.hi[dim] - region.lo[dim]) / 2 + 1;
    left_count = 0;
    while (left_count < records.size() &&
           records[left_count].key[dim] < split_coord) {
      ++left_count;
    }
    if (left_count == 0 || left_count == records.size()) {
      // Degenerate midpoint: split at the distinct-coordinate boundary
      // closest to the median. At least one boundary exists because the
      // dimension was chosen to have two distinct coordinates.
      std::size_t best = 0;
      std::size_t median = records.size() / 2;
      for (std::size_t b = 1; b < records.size(); ++b) {
        if (records[b - 1].key[dim] == records[b].key[dim]) continue;
        std::size_t dist = b > median ? b - median : median - b;
        std::size_t best_dist =
            best > median ? best - median : median - best;
        if (best == 0 || dist < best_dist) best = b;
      }
      left_count = best;
      split_coord = records[best].key[dim];
    }
  }

  Box left_region = region, right_region = region;
  left_region.hi[dim] = split_coord - 1;
  right_region.lo[dim] = split_coord;
  std::vector<Record> left(records.begin(), records.begin() + left_count);
  std::vector<Record> right(records.begin() + left_count, records.end());

  int l = BuildNode(mvk, sk_do, left_region, std::move(left), depth + 1,
                    max_policy_depth, rng, batch, queued);
  int r = BuildNode(mvk, sk_do, right_region, std::move(right), depth + 1,
                    max_policy_depth, rng, batch, queued);

  Node& node = nodes_[idx];
  node.left = l;
  node.right = r;
  node.policy = policy::OrCombineDnf(nodes_[l].policy, nodes_[r].policy);
  queued->push_back(idx);
  SignApp(batch, mvk, sk_do, BoxMessage(region), node.policy, rng);
  return idx;
}

KdTree KdTree::Build(const VerifyKey& mvk, const SigningKey& sk_do,
                     const Domain& domain, const std::vector<Record>& records,
                     Rng* rng) {
  KdTree tree;
  tree.domain_ = domain;
  for (const auto& r : records) {
    if (!domain.ContainsPoint(r.key)) {
      throw std::invalid_argument("record key outside domain");
    }
  }
  // Depth bound log2(S) from §9.1 (S = area of the index space).
  int max_policy_depth = domain.bits * domain.dims;
  std::vector<int> queued;
  abs::SignBatch batch([&](std::size_t k) -> Signature& {
    return tree.nodes_[queued[k]].sig;
  });
  tree.root_ = tree.BuildNode(mvk, sk_do, domain.FullBox(), records, 0,
                              max_policy_depth, rng, &batch, &queued);
  batch.Run();
  // Static ADS: attested once at epoch 0 with no incremental digest to
  // maintain (only the dynamic AP²G-tree tracks a set-hash digest).
  tree.stamp_ = MakeEpochStamp(mvk, sk_do, 0, Digest{}, rng);
  return tree;
}

std::size_t KdTree::LeafCount() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) n += node.is_leaf ? 1 : 0;
  return n;
}

std::size_t KdTree::MaxDepth() const {
  // Depth via iterative traversal.
  std::size_t best = 0;
  std::deque<std::pair<int, std::size_t>> queue{{root_, 0}};
  while (!queue.empty()) {
    auto [idx, d] = queue.front();
    queue.pop_front();
    if (idx < 0) continue;
    best = std::max(best, d);
    queue.emplace_back(nodes_[idx].left, d + 1);
    queue.emplace_back(nodes_[idx].right, d + 1);
  }
  return best;
}

void KdTree::SerializedSize(std::size_t* structure_bytes,
                            std::size_t* signature_bytes) const {
  std::size_t structure = 0, sigs = 0;
  for (const auto& node : nodes_) {
    structure += 8 * node.region.lo.size() + node.policy.ToString().size();
    if (node.is_leaf) structure += node.record.value.size();
    sigs += node.sig.SerializedSize();
  }
  *structure_bytes = structure;
  *signature_bytes = sigs;
}

KdVo BuildKdRangeVo(const KdTree& tree, const VerifyKey& mvk, const Box& range,
                    const RoleSet& user_roles, const RoleSet& universe,
                    Rng* rng) {
  RoleSet lacked = SuperPolicyRoles(universe, user_roles);
  KdVo vo;
  vo.stamp = tree.stamp();
  const std::vector<KdTree::Node>& nodes = tree.nodes();
  // The relaxations queue in walk order on one signing stage; each lands
  // in the leaf or box entry made for it.
  std::vector<std::pair<bool, std::size_t>> slots;  // (leaf?, entry index)
  abs::SignBatch batch([&](std::size_t i) -> Signature& {
    auto [leaf, at] = slots[i];
    return leaf ? vo.leaves[at].aps_sig : vo.boxes[at].aps_sig;
  });
  // A leaf region crossing the range is returned whole, as is a crossing
  // cover; the verifier clips every region to the range.
  WalkCover(
      tree.root(), range,
      [&](int idx) { return CoverView{nodes[idx].region, nodes[idx].is_leaf}; },
      [&](int idx) { return nodes[idx].policy.Evaluate(user_roles); },
      [&](int idx) {
        return std::array<int, 2>{nodes[idx].left, nodes[idx].right};
      },
      [&](int idx) {
        const KdTree::Node& node = nodes[idx];
        if (node.is_leaf) {
          Digest vh = crypto::Sha256::Hash(node.record.value.data(),
                                           node.record.value.size());
          auto msg = KdLeafMessageFromHash(node.region, node.record.key, vh);
          slots.emplace_back(true, vo.leaves.size());
          vo.leaves.push_back(
              KdInaccessibleLeafEntry{node.region, node.record.key, vh, {}});
          RelaxApp(&batch, mvk, node.sig, node.policy, msg, lacked, rng);
          return;
        }
        slots.emplace_back(false, vo.boxes.size());
        vo.boxes.push_back(InaccessibleBoxEntry{node.region, {}});
        RelaxApp(&batch, mvk, node.sig, node.policy, BoxMessage(node.region),
                 lacked, rng);
      },
      [&](int idx) {
        const KdTree::Node& node = nodes[idx];
        vo.results.push_back(KdResultEntry{node.region, node.record.key,
                                           node.record.value,
                                           node.record.policy, node.sig});
      });
  batch.Run();
  return vo;
}

void KdVo::Serialize(common::ByteWriter* w) const {
  stamp.Serialize(w);
  w->PutList(results, [w](const KdResultEntry& e) {
    WriteBox(w, e.region);
    WritePoint(w, e.key);
    w->PutString(e.value);
    w->PutString(e.policy.ToString());
    e.app_sig.Serialize(w);
  });
  w->PutList(leaves, [w](const KdInaccessibleLeafEntry& e) {
    WriteBox(w, e.region);
    WritePoint(w, e.key);
    w->PutBytes(e.value_hash.data(), e.value_hash.size());
    e.aps_sig.Serialize(w);
  });
  w->PutList(boxes, [w](const auto& e) { WriteBoxEntry(w, e); });
}

std::size_t KdVo::SerializedSize() const {
  common::ByteWriter w;
  Serialize(&w);
  return w.size();
}

KdVo KdVo::DeserializeRaw(common::ByteReader* r) {
  crypto::PointAdmission admit(r);
  KdVo vo;
  vo.stamp = EpochStamp::DeserializeRaw(r);
  r->GetList(&vo.results, kMinVoEntryBytes, [r] {
    KdResultEntry e;
    e.region = ReadBox(r);
    e.key = ReadPoint(r);
    e.value = r->GetString();
    e.policy = ReadPolicy(r);
    e.app_sig = Signature::Deserialize(r);
    return e;
  });
  r->GetList(&vo.leaves, kMinVoEntryBytes, [r] {
    KdInaccessibleLeafEntry e;
    e.region = ReadBox(r);
    e.key = ReadPoint(r);
    r->Get(e.value_hash.data(), e.value_hash.size());
    e.aps_sig = Signature::Deserialize(r);
    return e;
  });
  r->GetList(&vo.boxes, kMinVoEntryBytes, [r] { return ReadBoxEntry(r); });
  return vo;
}

VerifyResult VerifyKdRangeVo(const VerifyContext& ctx, const Box& range,
                             const KdVo& vo, std::vector<Record>* results) {
  const Policy super_policy = ctx.SuperPolicy();
  return RunVerify(
      ctx, {&vo.stamp},
      [&](SigBatch& batch) -> VerifyResult {
        if (VerifyResult q = CheckQueryBox(ctx.domain, range); !q.ok()) {
          return q;
        }
        // Coverage: leaf regions and boxes may cross the range boundary;
        // CheckCoverage clips them.
        std::vector<Box> regions;
        for (const auto& e : vo.results) regions.push_back(e.region);
        for (const auto& e : vo.leaves) regions.push_back(e.region);
        for (const auto& e : vo.boxes) regions.push_back(e.box);
        if (VerifyResult c = CheckCoverage(range, regions); !c.ok()) return c;

        for (std::size_t i = 0; i < vo.results.size(); ++i) {
          const KdResultEntry& e = vo.results[i];
          std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
          if (!ctx.domain.ContainsPoint(e.key) || !e.region.Contains(e.key)) {
            return VerifyResult::Fail(VerifyCode::kKeyMismatch,
                                      "result key outside its region", idx);
          }
          // A record outside the range itself is acceptable when its leaf
          // region only partially overlaps: the region still proves
          // emptiness, but the record is not output as a result.
          if (!e.policy.Evaluate(ctx.roles)) {
            return VerifyResult::Fail(VerifyCode::kPolicyNotSatisfied,
                                      "result policy not satisfied", idx);
          }
          batch.Add(KdLeafMessage(e.region, e.key, e.value), &e.policy,
                    &e.app_sig,
                    VerifyResult::Fail(VerifyCode::kBadSignature,
                                       "kd APP signature verification failed",
                                       idx));
          if (results != nullptr) {
            batch.OnVerified([results, &e, &range] {
              if (range.Contains(e.key)) {
                results->push_back(Record{e.key, e.value, e.policy});
              }
            });
          }
        }
        for (std::size_t i = 0; i < vo.leaves.size(); ++i) {
          const KdInaccessibleLeafEntry& e = vo.leaves[i];
          batch.Add(KdLeafMessageFromHash(e.region, e.key, e.value_hash),
                    &super_policy, &e.aps_sig,
                    VerifyResult::Fail(
                        VerifyCode::kBadSignature,
                        "kd leaf APS signature verification failed",
                        static_cast<std::ptrdiff_t>(i)));
        }
        for (std::size_t i = 0; i < vo.boxes.size(); ++i) {
          AddBoxApsCheck(&batch, vo.boxes[i], &super_policy,
                         static_cast<std::ptrdiff_t>(i),
                         "kd box APS signature verification failed");
        }
        return VerifyResult::Ok();
      });
}

}  // namespace apqa::core
