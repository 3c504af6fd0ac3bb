#include "core/join_query.h"

#include <deque>

#include "core/parallel_verify.h"
#include "core/range_query.h"

namespace apqa::core {

namespace {

// Smallest node of `tree` under `from` whose box still covers `box`
// (Algorithm 4). In a full grid tree this is the aligned node at the same
// level as `box` when the box is a grid box.
GridTree::NodeId DescendCovering(const GridTree& tree, GridTree::NodeId from,
                                 const Box& box) {
  GridTree::NodeId cur = from;
  for (;;) {
    if (tree.IsLeafLevel(cur)) return cur;
    bool descended = false;
    for (GridTree::NodeId c : tree.Children(cur)) {
      if (tree.GetNode(c).box.ContainsBox(box)) {
        cur = c;
        descended = true;
        break;
      }
    }
    if (!descended) return cur;
  }
}

}  // namespace

JoinVo BuildJoinVo(const GridTree& tree_r, const GridTree& tree_s,
                   const VerifyKey& mvk, const Box& range,
                   const RoleSet& user_roles, const RoleSet& universe,
                   Rng* rng, ThreadPool* pool) {
  RoleSet lacked = SuperPolicyRoles(universe, user_roles);

  JoinVo vo;
  vo.r_stamp = tree_r.stamp();
  vo.s_stamp = tree_s.stamp();
  struct RelaxJob {
    const GridTree* tree;
    GridTree::NodeId id;
    bool s_side;
  };
  std::vector<RelaxJob> jobs;

  std::deque<std::pair<GridTree::NodeId, GridTree::NodeId>> queue;
  queue.emplace_back(tree_r.Root(), tree_s.Root());
  while (!queue.empty()) {
    auto [nr, ns] = queue.front();
    queue.pop_front();
    const GridTree::Node& node_r = tree_r.GetNode(nr);
    if (!node_r.box.Intersects(range)) continue;
    if (!range.ContainsBox(node_r.box)) {
      for (GridTree::NodeId c : tree_r.Children(nr)) queue.emplace_back(c, ns);
      continue;
    }
    if (!node_r.policy.Evaluate(user_roles)) {
      jobs.push_back(RelaxJob{&tree_r, nr, /*s_side=*/false});
      continue;
    }
    GridTree::NodeId ns_small = DescendCovering(tree_s, ns, node_r.box);
    const GridTree::Node& node_s = tree_s.GetNode(ns_small);
    if (!node_s.policy.Evaluate(user_roles)) {
      jobs.push_back(RelaxJob{&tree_s, ns_small, /*s_side=*/true});
      continue;
    }
    if (tree_r.IsLeafLevel(nr)) {
      // Both sides are accessible leaves: a join result pair. Accessibility
      // excludes pseudo records (policy Role_∅).
      vo.pairs.push_back(JoinResultPair{
          ResultEntry{node_r.record.key, node_r.record.value,
                      node_r.record.policy, node_r.sig},
          ResultEntry{node_s.record.key, node_s.record.value,
                      node_s.record.policy, node_s.sig}});
    } else {
      for (GridTree::NodeId c : tree_r.Children(nr)) {
        queue.emplace_back(c, ns_small);
      }
    }
  }

  // Derive APS signatures for all blocking nodes.
  std::vector<VoEntry> relaxed(jobs.size());
  std::vector<bool> s_side(jobs.size());
  auto relax_one = [&](std::size_t i, Rng* r) {
    const RelaxJob& job = jobs[i];
    const GridTree::Node& node = job.tree->GetNode(job.id);
    s_side[i] = job.s_side;
    if (node.is_leaf) {
      Digest vh = crypto::Sha256::Hash(node.record.value.data(),
                                       node.record.value.size());
      auto msg = RecordMessageFromHash(node.record.key, vh);
      auto aps = DeriveAps(mvk, node.sig, node.policy, msg, lacked, r);
      relaxed[i] = InaccessibleRecordEntry{node.record.key, vh, std::move(*aps)};
    } else {
      auto msg = BoxMessage(node.box);
      auto aps = DeriveAps(mvk, node.sig, node.policy, msg, lacked, r);
      relaxed[i] = InaccessibleBoxEntry{node.box, std::move(*aps)};
    }
  };
  if (pool != nullptr && pool->thread_count() > 1 && jobs.size() > 1) {
    std::vector<Rng> rngs;
    for (int t = 0; t < pool->thread_count(); ++t) rngs.emplace_back(rng->NextU64());
    std::atomic<std::size_t> next{0};
    pool->ParallelFor(pool->thread_count(), [&](std::size_t t) {
      for (;;) {
        std::size_t i = next.fetch_add(1);
        if (i >= jobs.size()) break;
        relax_one(i, &rngs[t]);
      }
    });
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) relax_one(i, rng);
  }
  for (std::size_t i = 0; i < relaxed.size(); ++i) {
    (s_side[i] ? vo.s_aps : vo.r_aps).push_back(std::move(relaxed[i]));
  }
  return vo;
}

void JoinVo::Serialize(common::ByteWriter* w) const {
  r_stamp.Serialize(w);
  s_stamp.Serialize(w);
  w->PutU32(static_cast<std::uint32_t>(pairs.size()));
  for (const auto& p : pairs) {
    SerializeEntry(w, p.r);
    SerializeEntry(w, p.s);
  }
  w->PutU32(static_cast<std::uint32_t>(r_aps.size()));
  for (const auto& e : r_aps) SerializeEntry(w, e);
  w->PutU32(static_cast<std::uint32_t>(s_aps.size()));
  for (const auto& e : s_aps) SerializeEntry(w, e);
}

JoinVo JoinVo::DeserializeRaw(common::ByteReader* r) {
  JoinVo vo;
  vo.r_stamp = EpochStamp::DeserializeRaw(r);
  vo.s_stamp = EpochStamp::DeserializeRaw(r);
  std::uint32_t np = r->GetU32();
  // Two entries per pair, each at least kMinVoEntryBytes on the wire.
  if (!r->CheckCount(np, 2 * kMinVoEntryBytes)) return vo;
  vo.pairs.reserve(np);
  for (std::uint32_t i = 0; i < np && r->ok(); ++i) {
    JoinResultPair pair;
    VoEntry er = DeserializeEntry(r);
    VoEntry es = DeserializeEntry(r);
    auto* a = std::get_if<ResultEntry>(&er);
    auto* b = std::get_if<ResultEntry>(&es);
    if (a == nullptr || b == nullptr) {
      r->MarkBad(common::WireError::kMalformed,
                 "join pair entry is not a result entry");
      return vo;
    }
    pair.r = std::move(*a);
    pair.s = std::move(*b);
    vo.pairs.push_back(std::move(pair));
  }
  std::uint32_t nr = r->GetU32();
  if (!r->CheckCount(nr, kMinVoEntryBytes)) return vo;
  vo.r_aps.reserve(nr);
  for (std::uint32_t i = 0; i < nr && r->ok(); ++i) {
    vo.r_aps.push_back(DeserializeEntry(r));
  }
  std::uint32_t ns = r->GetU32();
  if (!r->CheckCount(ns, kMinVoEntryBytes)) return vo;
  vo.s_aps.reserve(ns);
  for (std::uint32_t i = 0; i < ns && r->ok(); ++i) {
    vo.s_aps.push_back(DeserializeEntry(r));
  }
  return vo;
}

std::size_t JoinVo::SerializedSize() const {
  common::ByteWriter w;
  Serialize(&w);
  return w.size();
}

VerifyResult VerifyJoinVo(const VerifyContext& ctx, const Box& range,
                          const JoinVo& vo,
                          std::vector<std::pair<Record, Record>>* results) {
  const Policy super_policy = ctx.SuperPolicy();
  // A pair emits iff its *second* (S-side) job precedes the first failure.
  std::vector<std::ptrdiff_t> pair_job(vo.pairs.size(), -1);
  return RunVerify(
      ctx, {&vo.r_stamp, &vo.s_stamp},
      [&](SigBatch& batch) -> VerifyResult {
        if (VerifyResult q = CheckQueryBox(ctx.domain, range); !q.ok()) {
          return q;
        }
        // Completeness: pair cells plus APS regions tile the range.
        Vo coverage;
        for (const auto& p : vo.pairs) coverage.entries.push_back(p.r);
        for (const auto& e : vo.r_aps) coverage.entries.push_back(e);
        for (const auto& e : vo.s_aps) coverage.entries.push_back(e);
        if (VerifyResult c = CheckCoverage(range, coverage); !c.ok()) {
          return c;
        }
        for (std::size_t i = 0; i < vo.pairs.size(); ++i) {
          const JoinResultPair& pair = vo.pairs[i];
          std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
          if (pair.r.key != pair.s.key) {
            return VerifyResult::Fail(VerifyCode::kKeyMismatch,
                                      "join pair keys differ", idx);
          }
          if (!ctx.domain.ContainsPoint(pair.r.key) ||
              !range.Contains(pair.r.key)) {
            return VerifyResult::Fail(VerifyCode::kRegionOutsideRange,
                                      "join pair key outside range", idx);
          }
          std::ptrdiff_t job = -1;
          for (const ResultEntry* side : {&pair.r, &pair.s}) {
            // An S-side structural failure after the R-side job was queued
            // leaves the pair unemitted, as in the sequential verifier.
            if (!side->policy.Evaluate(ctx.roles)) {
              return VerifyResult::Fail(VerifyCode::kPolicyNotSatisfied,
                                        "join pair policy not satisfied", idx);
            }
            job = static_cast<std::ptrdiff_t>(batch.Add(
                RecordMessage(side->key, side->value), &side->policy,
                &side->app_sig,
                VerifyResult::Fail(
                    VerifyCode::kBadSignature,
                    "join pair APP signature verification failed", idx)));
          }
          pair_job[i] = job;
        }
        for (const auto* side : {&vo.r_aps, &vo.s_aps}) {
          for (std::size_t i = 0; i < side->size(); ++i) {
            std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
            if (!AddApsCheck(&batch, (*side)[i], &super_policy, idx,
                             "join APS record signature verification failed",
                             "join APS box signature verification failed")) {
              return VerifyResult::Fail(
                  VerifyCode::kUnexpectedEntryType,
                  "unexpected result entry among join APS entries", idx);
            }
          }
        }
        return VerifyResult::Ok();
      },
      [&](std::size_t limit) {
        if (results == nullptr) return;
        for (std::size_t i = 0; i < vo.pairs.size(); ++i) {
          if (pair_job[i] < 0 ||
              static_cast<std::size_t>(pair_job[i]) >= limit) {
            continue;
          }
          const JoinResultPair& pair = vo.pairs[i];
          results->emplace_back(
              Record{pair.r.key, pair.r.value, pair.r.policy},
              Record{pair.s.key, pair.s.value, pair.s.policy});
        }
      });
}

MultiJoinVo BuildMultiJoinVo(const std::vector<const GridTree*>& trees,
                             const VerifyKey& mvk, const Box& range,
                             const RoleSet& user_roles,
                             const RoleSet& universe, Rng* rng) {
  RoleSet lacked = SuperPolicyRoles(universe, user_roles);
  MultiJoinVo vo;
  vo.aps.resize(trees.size());
  for (const GridTree* t : trees) vo.stamps.push_back(t->stamp());

  auto emit_aps = [&](const GridTree& tree, GridTree::NodeId id,
                      std::vector<VoEntry>* out) {
    const GridTree::Node& node = tree.GetNode(id);
    if (node.is_leaf) {
      Digest vh = crypto::Sha256::Hash(node.record.value.data(),
                                       node.record.value.size());
      auto msg = RecordMessageFromHash(node.record.key, vh);
      auto aps = DeriveAps(mvk, node.sig, node.policy, msg, lacked, rng);
      out->push_back(InaccessibleRecordEntry{node.record.key, vh, *aps});
    } else {
      auto aps = DeriveAps(mvk, node.sig, node.policy, BoxMessage(node.box),
                           lacked, rng);
      out->push_back(InaccessibleBoxEntry{node.box, *aps});
    }
  };

  // BFS over the first tree; companions track the covering node per table.
  struct Item {
    GridTree::NodeId lead;
    std::vector<GridTree::NodeId> companions;  // trees[1..]
  };
  std::deque<Item> queue;
  Item root;
  root.lead = trees[0]->Root();
  for (std::size_t i = 1; i < trees.size(); ++i) {
    root.companions.push_back(trees[i]->Root());
  }
  queue.push_back(std::move(root));
  while (!queue.empty()) {
    Item item = std::move(queue.front());
    queue.pop_front();
    const GridTree::Node& lead = trees[0]->GetNode(item.lead);
    if (!lead.box.Intersects(range)) continue;
    if (!range.ContainsBox(lead.box)) {
      for (GridTree::NodeId c : trees[0]->Children(item.lead)) {
        queue.push_back(Item{c, item.companions});
      }
      continue;
    }
    if (!lead.policy.Evaluate(user_roles)) {
      emit_aps(*trees[0], item.lead, &vo.aps[0]);
      continue;
    }
    // Descend every companion to the node covering the lead box; the first
    // inaccessible one blocks the region.
    std::vector<GridTree::NodeId> next_companions;
    bool blocked = false;
    for (std::size_t i = 1; i < trees.size() && !blocked; ++i) {
      GridTree::NodeId small =
          DescendCovering(*trees[i], item.companions[i - 1], lead.box);
      if (!trees[i]->GetNode(small).policy.Evaluate(user_roles)) {
        emit_aps(*trees[i], small, &vo.aps[i]);
        blocked = true;
      }
      next_companions.push_back(small);
    }
    if (blocked) continue;
    if (trees[0]->IsLeafLevel(item.lead)) {
      std::vector<ResultEntry> tuple;
      tuple.push_back(ResultEntry{lead.record.key, lead.record.value,
                                  lead.record.policy, lead.sig});
      for (std::size_t i = 1; i < trees.size(); ++i) {
        const GridTree::Node& n = trees[i]->GetNode(next_companions[i - 1]);
        tuple.push_back(
            ResultEntry{n.record.key, n.record.value, n.record.policy, n.sig});
      }
      vo.tuples.push_back(std::move(tuple));
    } else {
      for (GridTree::NodeId c : trees[0]->Children(item.lead)) {
        queue.push_back(Item{c, next_companions});
      }
    }
  }
  return vo;
}

std::size_t MultiJoinVo::SerializedSize() const {
  common::ByteWriter w;
  for (const auto& tuple : tuples) {
    for (const auto& e : tuple) SerializeEntry(&w, e);
  }
  for (const auto& side : aps) {
    for (const auto& e : side) SerializeEntry(&w, e);
  }
  return w.size();
}

VerifyResult VerifyMultiJoinVo(const VerifyContext& ctx, const Box& range,
                               std::size_t num_tables, const MultiJoinVo& vo,
                               std::vector<std::vector<Record>>* results) {
  // A missing stamp vector is treated like an unattested stamp: acceptable
  // only while the caller does not demand freshness.
  if ((!vo.stamps.empty() || ctx.expected_epoch > 0) &&
      vo.stamps.size() != num_tables) {
    return VerifyResult::Fail(VerifyCode::kStaleEpoch,
                              "wrong number of freshness stamps");
  }
  std::vector<const EpochStamp*> stamps;
  for (const EpochStamp& stamp : vo.stamps) stamps.push_back(&stamp);
  const Policy super_policy = ctx.SuperPolicy();
  // A tuple emits iff its *last* (num_tables-th) job precedes the first
  // signature failure.
  std::vector<std::ptrdiff_t> tuple_job(vo.tuples.size(), -1);
  return RunVerify(
      ctx, stamps,
      [&](SigBatch& batch) -> VerifyResult {
        if (VerifyResult q = CheckQueryBox(ctx.domain, range); !q.ok()) {
          return q;
        }
        if (vo.aps.size() != num_tables) {
          return VerifyResult::Fail(VerifyCode::kWrongEntryCount,
                                    "wrong number of APS groups");
        }
        Vo coverage;
        for (std::size_t i = 0; i < vo.tuples.size(); ++i) {
          if (vo.tuples[i].size() != num_tables) {
            return VerifyResult::Fail(VerifyCode::kWrongEntryCount,
                                      "tuple arity mismatch",
                                      static_cast<std::ptrdiff_t>(i));
          }
          coverage.entries.push_back(vo.tuples[i][0]);
        }
        for (const auto& side : vo.aps) {
          for (const auto& e : side) coverage.entries.push_back(e);
        }
        if (VerifyResult c = CheckCoverage(range, coverage); !c.ok()) {
          return c;
        }
        for (std::size_t i = 0; i < vo.tuples.size(); ++i) {
          const auto& tuple = vo.tuples[i];
          std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
          std::ptrdiff_t job = -1;
          // A mid-tuple structural failure leaves earlier sides queued but
          // the tuple unemitted, as in the sequential verifier.
          for (const auto& side : tuple) {
            if (side.key != tuple[0].key) {
              return VerifyResult::Fail(VerifyCode::kKeyMismatch,
                                        "tuple keys differ", idx);
            }
            if (!ctx.domain.ContainsPoint(side.key) ||
                !range.Contains(side.key)) {
              return VerifyResult::Fail(VerifyCode::kRegionOutsideRange,
                                        "tuple key outside range", idx);
            }
            if (!side.policy.Evaluate(ctx.roles)) {
              return VerifyResult::Fail(VerifyCode::kPolicyNotSatisfied,
                                        "tuple policy not satisfied", idx);
            }
            job = static_cast<std::ptrdiff_t>(batch.Add(
                RecordMessage(side.key, side.value), &side.policy,
                &side.app_sig,
                VerifyResult::Fail(VerifyCode::kBadSignature,
                                   "tuple APP signature verification failed",
                                   idx)));
          }
          tuple_job[i] = job;
        }
        for (const auto& side : vo.aps) {
          for (std::size_t i = 0; i < side.size(); ++i) {
            std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
            if (!AddApsCheck(&batch, side[i], &super_policy, idx,
                             "multi-join record APS verification failed",
                             "multi-join box APS verification failed")) {
              return VerifyResult::Fail(
                  VerifyCode::kUnexpectedEntryType,
                  "unexpected entry type in multi-join APS group", idx);
            }
          }
        }
        return VerifyResult::Ok();
      },
      [&](std::size_t limit) {
        if (results == nullptr) return;
        for (std::size_t i = 0; i < vo.tuples.size(); ++i) {
          if (tuple_job[i] < 0 ||
              static_cast<std::size_t>(tuple_job[i]) >= limit) {
            continue;
          }
          std::vector<Record> out;
          for (const auto& side : vo.tuples[i]) {
            out.push_back(Record{side.key, side.value, side.policy});
          }
          results->push_back(std::move(out));
        }
      });
}

}  // namespace apqa::core
