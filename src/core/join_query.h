// Authenticated equi-join queries (paper §6.2, Algorithm 4).
//
// For R ⋈_{R.o=S.o} S with R.o ∈ [α,β], the SP walks the two AP²G-trees in
// lockstep. A region contributes no join results if it is inaccessible on
// the R side or on the S side; either way one APS signature proves it. Leaf
// pairs that are accessible on both sides are join results, proven by the
// two APP signatures.
#ifndef APQA_CORE_JOIN_QUERY_H_
#define APQA_CORE_JOIN_QUERY_H_

#include "core/grid_tree.h"
#include "core/verify_result.h"
#include "core/vo.h"

namespace apqa::core {

struct JoinResultPair {
  ResultEntry r;
  ResultEntry s;
};

struct JoinVo {
  std::vector<JoinResultPair> pairs;
  std::vector<VoEntry> r_aps;  // inaccessible covers from tree R
  std::vector<VoEntry> s_aps;  // blocking covers from tree S
  EpochStamp r_stamp;          // freshness attestation of tree R
  EpochStamp s_stamp;          // freshness attestation of tree S

  void Serialize(common::ByteWriter* w) const;
  // Tainted wire entry; see core/vo.h. DeserializeRaw is serde-layer only.
  static common::Untrusted<JoinVo> Deserialize(common::ByteReader* r) {
    return common::Untrusted<JoinVo>(DeserializeRaw(r));
  }
  static JoinVo DeserializeRaw(common::ByteReader* r);
  std::size_t SerializedSize() const;
};

// SP side (Algorithm 4).
JoinVo BuildJoinVo(const GridTree& tree_r, const GridTree& tree_s,
                   const VerifyKey& mvk, const Box& range,
                   const RoleSet& user_roles, const RoleSet& universe,
                   Rng* rng, ThreadPool* pool = nullptr);

// User side: soundness (pair keys equal, signatures valid, policies
// satisfied) and completeness (pair cells plus APS regions tile the range).
VerifyResult VerifyJoinVo(const VerifyContext& ctx, const Box& range,
                          const JoinVo& vo,
                          std::vector<std::pair<Record, Record>>* results);

// Declassification gate for wire-decoded VOs: verification is the trust
// boundary, so the tainted value feeds the checked path directly.
inline VerifyResult VerifyJoinVo(
    const VerifyContext& ctx, const Box& range,
    const common::Untrusted<JoinVo>& vo,
    std::vector<std::pair<Record, Record>>* results) {
  // untrusted-ok: Verify*Vo is the declassification gate for SP bytes.
  return VerifyJoinVo(ctx, range, vo.Unvalidated(), results);
}

// --- Multi-way equi-join (§6.2, "easily extended") -------------------------
//
// R1 ⋈ R2 ⋈ ... ⋈ Rk on the shared key, key ∈ [α,β]. A cell contributes a
// result tuple iff it is accessible in every tree; otherwise the first
// blocking tree (in table order) proves non-contribution with one APS
// signature.

struct MultiJoinVo {
  // One ResultEntry per table for each joining key.
  std::vector<std::vector<ResultEntry>> tuples;
  // aps[i]: blocking covers contributed by table i.
  std::vector<std::vector<VoEntry>> aps;
  // stamps[i]: freshness attestation of table i's ADS.
  std::vector<EpochStamp> stamps;

  std::size_t SerializedSize() const;
};

MultiJoinVo BuildMultiJoinVo(const std::vector<const GridTree*>& trees,
                             const VerifyKey& mvk, const Box& range,
                             const RoleSet& user_roles,
                             const RoleSet& universe, Rng* rng);

VerifyResult VerifyMultiJoinVo(const VerifyContext& ctx, const Box& range,
                               std::size_t num_tables, const MultiJoinVo& vo,
                               std::vector<std::vector<Record>>* results);

}  // namespace apqa::core

#endif  // APQA_CORE_JOIN_QUERY_H_
