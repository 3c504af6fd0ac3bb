// Authenticated equi-join queries (paper §6.2, Algorithm 4), for k ≥ 2
// tables.
//
// For R1 ⋈ R2 ⋈ ... ⋈ Rk on the shared key, key ∈ [α,β], the tables share
// one key grid, so the node at one position (NodeId) covers the same box in
// every tree. The SP runs the cover walk (WalkCover, core/range_query.h)
// over node positions: a position contributes no join results if its node
// is inaccessible in any table, and the first blocking table (in table
// order) proves that with one APS signature, also for a node that crosses
// the range. Cells accessible in every table are join results, proven by
// one APP signature per table.
#ifndef APQA_CORE_JOIN_QUERY_H_
#define APQA_CORE_JOIN_QUERY_H_

#include "core/grid_tree.h"
#include "core/verify_result.h"
#include "core/vo.h"

namespace apqa::core {

struct JoinVo {
  // stamps[i]: freshness attestation of table i's ADS.
  std::vector<EpochStamp> stamps;
  // One ResultEntry per table for each joining key.
  std::vector<std::vector<ResultEntry>> tuples;
  // aps[i]: blocking covers contributed by table i.
  std::vector<std::vector<VoEntry>> aps;

  // Wire layout: the k stamps, then u32 + the tuples of k entries each,
  // then k × (u32 + APS entries).
  void Serialize(common::ByteWriter* w) const;
  // Tainted wire entry; see core/vo.h. The table count is not on the wire:
  // the caller knows how many tables it asked to join. DeserializeRaw is
  // serde-layer only.
  static common::Untrusted<JoinVo> Deserialize(common::ByteReader* r,
                                               std::size_t tables) {
    return common::Untrusted<JoinVo>(DeserializeRaw(r, tables));
  }
  static JoinVo DeserializeRaw(common::ByteReader* r, std::size_t tables);
  std::size_t SerializedSize() const;
};

// SP side (Algorithm 4) over trees.size() ≥ 2 tables sharing one key grid;
// throws std::invalid_argument, before it reads any node, unless every tree
// has the first tree's Domain. Relaxations fan out over `pool` when given.
JoinVo BuildJoinVo(const std::vector<const GridTree*>& trees,
                   const VerifyKey& mvk, const Box& range,
                   const RoleSet& user_roles, const RoleSet& universe,
                   Rng* rng, ThreadPool* pool = nullptr);

// User side: soundness (tuple keys equal, signatures valid, policies
// satisfied) and completeness (tuple cells plus APS regions tile the
// range), for a join of `tables` tables. On success appends one record per
// table for each result tuple.
VerifyResult VerifyJoinVo(const VerifyContext& ctx, const Box& range,
                          std::size_t tables, const JoinVo& vo,
                          std::vector<std::vector<Record>>* results);

// Declassification gate for wire-decoded VOs: verification is the trust
// boundary, so the tainted value feeds the checked path directly.
inline VerifyResult VerifyJoinVo(const VerifyContext& ctx, const Box& range,
                                 std::size_t tables,
                                 const common::Untrusted<JoinVo>& vo,
                                 std::vector<std::vector<Record>>* results) {
  // untrusted-ok: Verify*Vo is the declassification gate for SP bytes.
  return VerifyJoinVo(ctx, range, tables, vo.Unvalidated(), results);
}

}  // namespace apqa::core

#endif  // APQA_CORE_JOIN_QUERY_H_
