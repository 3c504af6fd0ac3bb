#include "core/join_query.h"

#include <stdexcept>

#include "core/parallel_verify.h"
#include "core/range_query.h"
#include "crypto/serde.h"

namespace apqa::core {

JoinVo BuildJoinVo(const std::vector<const GridTree*>& trees,
                   const VerifyKey& mvk, const Box& range,
                   const RoleSet& user_roles, const RoleSet& universe,
                   Rng* rng, ThreadPool* pool) {
  const Domain& grid = trees[0]->domain();
  for (const GridTree* t : trees) {
    if (t->domain() != grid) {
      throw std::invalid_argument("join tables must share a key grid");
    }
  }
  const std::size_t k = trees.size();
  // The first table, in table order, whose node at `id` the user cannot
  // access; k if there is none. On the shared grid every table's node at
  // `id` covers the same box.
  auto blocking_table = [&](GridTree::NodeId id) {
    std::size_t i = 0;
    while (i < k && trees[i]->GetNode(id).policy.Evaluate(user_roles)) ++i;
    return i;
  };
  JoinVo vo;
  vo.aps.resize(k);
  for (const GridTree* t : trees) vo.stamps.push_back(t->stamp());
  // Blocking covers, in walk order, and the table each one proves.
  std::vector<const GridTree::Node*> covers;
  std::vector<std::size_t> cover_table;
  WalkGridCover(
      *trees[0], range,
      [&](GridTree::NodeId id) { return blocking_table(id) == k; },
      [&](GridTree::NodeId id) {
        std::size_t table = blocking_table(id);
        covers.push_back(&trees[table]->GetNode(id));
        cover_table.push_back(table);
      },
      [&](GridTree::NodeId id) {
        // Accessible leaves in every table: a result tuple. Accessibility
        // excludes pseudo records (policy Role_∅).
        std::vector<ResultEntry> tuple;
        for (const GridTree* t : trees) {
          const GridTree::Node& n = t->GetNode(id);
          tuple.push_back(ResultEntry{n.record.key, n.record.value,
                                      n.record.policy, n.sig});
        }
        vo.tuples.push_back(std::move(tuple));
      });

  std::vector<VoEntry> relaxed =
      RelaxNodes(covers, mvk, SuperPolicyRoles(universe, user_roles), rng,
                 pool);
  for (std::size_t i = 0; i < relaxed.size(); ++i) {
    vo.aps[cover_table[i]].push_back(std::move(relaxed[i]));
  }
  return vo;
}

void JoinVo::Serialize(common::ByteWriter* w) const {
  for (const EpochStamp& stamp : stamps) stamp.Serialize(w);
  w->PutList(tuples, [w](const std::vector<ResultEntry>& tuple) {
    for (const ResultEntry& e : tuple) SerializeEntry(w, e);
  });
  for (const auto& side : aps) {
    w->PutList(side, [w](const VoEntry& e) { SerializeEntry(w, e); });
  }
}

JoinVo JoinVo::DeserializeRaw(common::ByteReader* r, std::size_t tables) {
  crypto::PointAdmission admit(r);
  JoinVo vo;
  if (tables < 2) {
    r->MarkBad(common::WireError::kMalformed,
               "a join needs at least two tables");
    return vo;
  }
  for (std::size_t i = 0; i < tables; ++i) {
    vo.stamps.push_back(EpochStamp::DeserializeRaw(r));
  }
  // `tables` entries per tuple, each at least kMinVoEntryBytes on the wire.
  r->GetList(&vo.tuples, tables * kMinVoEntryBytes, [&] {
    std::vector<VoEntry> read;
    for (std::size_t i = 0; i < tables; ++i) read.push_back(DeserializeEntry(r));
    std::vector<ResultEntry> tuple;
    for (VoEntry& e : read) {
      auto* res = std::get_if<ResultEntry>(&e);
      if (res == nullptr) {
        r->MarkBad(common::WireError::kMalformed,
                   "join pair entry is not a result entry");
        break;
      }
      tuple.push_back(std::move(*res));
    }
    return tuple;
  });
  vo.aps.resize(tables);
  for (auto& side : vo.aps) {
    r->GetList(&side, kMinVoEntryBytes, [r] { return DeserializeEntry(r); });
  }
  return vo;
}

std::size_t JoinVo::SerializedSize() const {
  common::ByteWriter w;
  Serialize(&w);
  return w.size();
}

VerifyResult VerifyJoinVo(const VerifyContext& ctx, const Box& range,
                          std::size_t tables, const JoinVo& vo,
                          std::vector<std::vector<Record>>* results) {
  if (tables < 2) {
    return VerifyResult::Fail(VerifyCode::kBadQuery,
                              "a join needs at least two tables");
  }
  if (vo.stamps.size() != tables) {
    return VerifyResult::Fail(VerifyCode::kStaleEpoch,
                              "wrong number of freshness stamps");
  }
  std::vector<const EpochStamp*> stamps;
  for (const EpochStamp& stamp : vo.stamps) stamps.push_back(&stamp);
  const Policy super_policy = ctx.SuperPolicy();
  return RunVerify(
      ctx, stamps,
      [&](SigBatch& batch) -> VerifyResult {
        if (VerifyResult q = CheckQueryBox(ctx.domain, range); !q.ok()) {
          return q;
        }
        if (vo.aps.size() != tables) {
          return VerifyResult::Fail(VerifyCode::kWrongEntryCount,
                                    "wrong number of APS groups");
        }
        // Completeness: tuple cells plus APS regions tile the range.
        std::vector<Box> coverage;
        for (std::size_t i = 0; i < vo.tuples.size(); ++i) {
          if (vo.tuples[i].size() != tables) {
            return VerifyResult::Fail(VerifyCode::kWrongEntryCount,
                                      "tuple arity mismatch",
                                      static_cast<std::ptrdiff_t>(i));
          }
          coverage.push_back(EntryRegion(vo.tuples[i][0]));
        }
        for (const auto& side : vo.aps) {
          for (const auto& e : side) coverage.push_back(EntryRegion(e));
        }
        if (VerifyResult c = CheckCoverage(range, coverage); !c.ok()) {
          return c;
        }
        for (std::size_t i = 0; i < vo.tuples.size(); ++i) {
          const std::vector<ResultEntry>& tuple = vo.tuples[i];
          std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
          for (const ResultEntry& side : tuple) {
            if (side.key != tuple[0].key) {
              return VerifyResult::Fail(VerifyCode::kKeyMismatch,
                                        "join pair keys differ", idx);
            }
          }
          if (!ctx.domain.ContainsPoint(tuple[0].key) ||
              !range.Contains(tuple[0].key)) {
            return VerifyResult::Fail(VerifyCode::kRegionOutsideRange,
                                      "join pair key outside range", idx);
          }
          for (const ResultEntry& side : tuple) {
            // A structural failure after earlier sides were queued leaves
            // the tuple without an output, as in the sequential verifier.
            if (!side.policy.Evaluate(ctx.roles)) {
              return VerifyResult::Fail(VerifyCode::kPolicyNotSatisfied,
                                        "join pair policy not satisfied", idx);
            }
            batch.Add(RecordMessage(side.key, side.value), &side.policy,
                      &side.app_sig,
                      VerifyResult::Fail(
                          VerifyCode::kBadSignature,
                          "join pair APP signature verification failed", idx));
          }
          if (results != nullptr) {
            batch.OnVerified([results, &tuple] {
              std::vector<Record> row;
              for (const ResultEntry& side : tuple) {
                row.push_back(Record{side.key, side.value, side.policy});
              }
              results->push_back(std::move(row));
            });
          }
        }
        for (const auto& side : vo.aps) {
          for (std::size_t i = 0; i < side.size(); ++i) {
            std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
            if (!AddApsCheck(&batch, side[i], &super_policy, idx,
                             "join APS record signature verification failed",
                             "join APS box signature verification failed")) {
              return VerifyResult::Fail(
                  VerifyCode::kUnexpectedEntryType,
                  "unexpected result entry among join APS entries", idx);
            }
          }
        }
        return VerifyResult::Ok();
      });
}

}  // namespace apqa::core
