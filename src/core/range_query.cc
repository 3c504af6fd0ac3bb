#include "core/range_query.h"

#include <algorithm>

#include "core/parallel_verify.h"

namespace apqa::core {

Vo BuildRangeVo(const GridTree& tree, const VerifyKey& mvk, const Box& range,
                const RoleSet& user_roles, const RoleSet& universe, Rng* rng,
                ThreadPool* pool) {
  return BuildRangeVoWithLacked(tree, mvk, range, user_roles,
                                SuperPolicyRoles(universe, user_roles), rng,
                                pool);
}

Vo BuildRangeVoWithLacked(const GridTree& tree, const VerifyKey& mvk,
                          const Box& range, const RoleSet& user_roles,
                          const RoleSet& lacked, Rng* rng, ThreadPool* pool) {
  // Phase 1: find result leaves and inaccessible covers.
  Vo vo;
  vo.stamp = tree.stamp();
  std::vector<const GridTree::Node*> covers;
  WalkGridCover(
      tree, range,
      [&](GridTree::NodeId id) {
        return tree.GetNode(id).policy.Evaluate(user_roles);
      },
      [&](GridTree::NodeId id) { covers.push_back(&tree.GetNode(id)); },
      [&](GridTree::NodeId id) {
        // A leaf is one cell, so a result leaf lies in the range.
        const GridTree::Node& node = tree.GetNode(id);
        vo.entries.push_back(ResultEntry{node.record.key, node.record.value,
                                         node.record.policy, node.sig});
      });

  // Phase 2: derive the APS signatures (ABS.Relax), independently per node.
  for (auto& e : RelaxNodes(covers, mvk, lacked, rng, pool)) {
    vo.entries.push_back(std::move(e));
  }
  return vo;
}

VoEntry RelaxNode(const VerifyKey& mvk, const GridTree::Node& node,
                  const RoleSet& lacked, Rng* rng) {
  return std::move(RelaxNodes({&node}, mvk, lacked, rng, nullptr)[0]);
}

std::vector<VoEntry> RelaxNodes(const std::vector<const GridTree::Node*>& nodes,
                                const VerifyKey& mvk, const RoleSet& lacked,
                                Rng* rng, ThreadPool* pool) {
  // Queue every relaxation from the query's stream, in node order, so the
  // draws do not depend on the pool; only the multiplies fan out over it.
  std::vector<Signature> aps(nodes.size());
  abs::SignBatch batch([&aps](std::size_t i) -> Signature& { return aps[i]; },
                       FanOut(pool));
  std::vector<Digest> value_hashes(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const GridTree::Node& node = *nodes[i];
    std::vector<std::uint8_t> msg;
    if (node.is_leaf) {
      value_hashes[i] = crypto::Sha256::Hash(node.record.value.data(),
                                             node.record.value.size());
      msg = RecordMessageFromHash(node.record.key, value_hashes[i]);
    } else {
      msg = BoxMessage(node.box);
    }
    RelaxApp(&batch, mvk, node.sig, node.policy, msg, lacked, rng);
  }
  batch.Run();

  std::vector<VoEntry> relaxed;
  relaxed.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const GridTree::Node& node = *nodes[i];
    if (node.is_leaf) {
      relaxed.push_back(InaccessibleRecordEntry{node.record.key,
                                                value_hashes[i],
                                                std::move(aps[i])});
    } else {
      relaxed.push_back(InaccessibleBoxEntry{node.box, std::move(aps[i])});
    }
  }
  return relaxed;
}

VerifyResult CheckCoverage(const Box& range, const std::vector<Box>& regions) {
  std::uint64_t covered = 0;
  std::vector<Box> clipped;
  clipped.reserve(regions.size());
  for (std::size_t i = 0; i < regions.size(); ++i) {
    Box b = regions[i];
    std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
    if (b.lo.size() != range.lo.size()) {
      return VerifyResult::Fail(VerifyCode::kDimensionMismatch,
                                "entry region dimensionality mismatch", idx);
    }
    // An inverted box would wrap Volume() and could forge the covered-cell
    // sum, so reject before any arithmetic.
    if (!b.WellFormed()) {
      return VerifyResult::Fail(VerifyCode::kMalformedVo,
                                "entry region not a well-formed box", idx);
    }
    if (!range.Intersects(b)) {
      return VerifyResult::Fail(VerifyCode::kRegionOutsideRange,
                                "entry region outside query range", idx);
    }
    for (std::size_t d = 0; d < b.lo.size(); ++d) {
      b.lo[d] = std::max(b.lo[d], range.lo[d]);
      b.hi[d] = std::min(b.hi[d], range.hi[d]);
    }
    for (const Box& prev : clipped) {
      if (prev.Intersects(b)) {
        return VerifyResult::Fail(VerifyCode::kOverlap,
                                  "overlapping entry regions", idx);
      }
    }
    covered += b.Volume();
    clipped.push_back(std::move(b));
  }
  if (covered != range.Volume()) {
    return VerifyResult::Fail(VerifyCode::kCoverageGap,
                              "entry regions do not cover the query range");
  }
  return VerifyResult::Ok();
}

VerifyResult CheckQueryBox(const Domain& domain, const Box& range) {
  if (!range.WellFormed() ||
      range.lo.size() != static_cast<std::size_t>(domain.dims) ||
      !domain.FullBox().ContainsBox(range)) {
    return VerifyResult::Fail(VerifyCode::kBadQuery,
                              "query range invalid for domain");
  }
  return VerifyResult::Ok();
}

bool AddApsCheck(SigBatch* batch, const VoEntry& entry,
                 const Policy* super_policy, std::ptrdiff_t idx,
                 const char* record_detail, const char* box_detail) {
  if (const auto* rec = std::get_if<InaccessibleRecordEntry>(&entry)) {
    batch->Add(RecordMessageFromHash(rec->key, rec->value_hash), super_policy,
               &rec->aps_sig,
               VerifyResult::Fail(VerifyCode::kBadSignature, record_detail,
                                  idx));
    return true;
  }
  if (const auto* boxe = std::get_if<InaccessibleBoxEntry>(&entry)) {
    AddBoxApsCheck(batch, *boxe, super_policy, idx, box_detail);
    return true;
  }
  return false;
}

void AddBoxApsCheck(SigBatch* batch, const InaccessibleBoxEntry& box,
                    const Policy* super_policy, std::ptrdiff_t idx,
                    const char* detail) {
  batch->Add(BoxMessage(box.box), super_policy, &box.aps_sig,
             VerifyResult::Fail(VerifyCode::kBadSignature, detail, idx));
}

VerifyResult VerifyRangeVo(const VerifyContext& ctx, const Box& range,
                           const Vo& vo, std::vector<Record>* results) {
  const Policy super_policy = ctx.SuperPolicy();
  return RunVerify(
      ctx, {&vo.stamp},
      [&](SigBatch& batch) -> VerifyResult {
        if (VerifyResult q = CheckQueryBox(ctx.domain, range); !q.ok()) {
          return q;
        }
        std::vector<Box> regions;
        regions.reserve(vo.entries.size());
        for (const VoEntry& e : vo.entries) regions.push_back(EntryRegion(e));
        if (VerifyResult c = CheckCoverage(range, regions); !c.ok()) return c;
        for (std::size_t i = 0; i < vo.entries.size(); ++i) {
          const VoEntry& entry = vo.entries[i];
          std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
          if (const auto* res = std::get_if<ResultEntry>(&entry)) {
            if (!ctx.domain.ContainsPoint(res->key) ||
                !range.Contains(res->key)) {
              return VerifyResult::Fail(VerifyCode::kRegionOutsideRange,
                                        "result key outside range", idx);
            }
            if (!res->policy.Evaluate(ctx.roles)) {
              return VerifyResult::Fail(
                  VerifyCode::kPolicyNotSatisfied,
                  "result policy not satisfied by user roles", idx);
            }
            batch.Add(RecordMessage(res->key, res->value), &res->policy,
                      &res->app_sig,
                      VerifyResult::Fail(VerifyCode::kBadSignature,
                                         "APP signature verification failed",
                                         idx));
            if (results != nullptr) {
              batch.OnVerified([results, res] {
                results->push_back(Record{res->key, res->value, res->policy});
              });
            }
            continue;
          }
          const auto* rec = std::get_if<InaccessibleRecordEntry>(&entry);
          if (rec != nullptr && !ctx.domain.ContainsPoint(rec->key)) {
            return VerifyResult::Fail(VerifyCode::kRegionOutsideRange,
                                      "inaccessible record key outside domain",
                                      idx);
          }
          AddApsCheck(&batch, entry, &super_policy, idx,
                      "record APS signature verification failed",
                      "box APS signature verification failed");
        }
        return VerifyResult::Ok();
      });
}

}  // namespace apqa::core
