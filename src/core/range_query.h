// Authenticated range queries over the AP²G-tree (paper §6.1, Algorithm 3).
#ifndef APQA_CORE_RANGE_QUERY_H_
#define APQA_CORE_RANGE_QUERY_H_

#include <deque>

#include "core/grid_tree.h"
#include "core/verify_result.h"
#include "core/vo.h"

namespace apqa::core {

// How the cover walk sees one node.
struct CoverView {
  const Box& box;
  bool is_leaf;
};

// The one cover walk behind every VO builder: ranges (Algorithm 3), joins
// (Algorithm 4), non-ZK duplicates (Appendix E) and the AP²kd-tree (§9.1).
// Breadth-first from `root`, skipping every node whose box misses `range`;
// `view(id)` gives a node's CoverView, and `accessible(id)`, asked only of
// nodes the range meets, whether the user may access anything under it.
//   - A node the user cannot access is a cover, `on_cover(id)`: one APS
//     proves its whole box, whether the range contains it or it crosses the
//     range boundary.
//   - An accessible leaf is a result, `on_result(id)`.
//   - Any other node is split into `children(id)`.
// The walk order is part of a VO's bytes: entries follow it, and so do the
// RNG draws of builders that relax as they go.
template <typename Id, typename ViewFn, typename AccessibleFn,
          typename ChildrenFn, typename CoverFn, typename ResultFn>
void WalkCover(Id root, const Box& range, ViewFn view, AccessibleFn accessible,
               ChildrenFn children, CoverFn on_cover, ResultFn on_result) {
  std::deque<Id> queue{root};
  while (!queue.empty()) {
    Id id = queue.front();
    queue.pop_front();
    const CoverView node = view(id);
    if (!node.box.Intersects(range)) continue;
    if (!accessible(id)) {
      on_cover(id);
    } else if (node.is_leaf) {
      on_result(id);
    } else {
      for (Id c : children(id)) queue.push_back(c);
    }
  }
}

// WalkCover over a grid tree (GridTree or DupGridTree).
template <typename Tree, typename AccessibleFn, typename CoverFn,
          typename ResultFn>
void WalkGridCover(const Tree& tree, const Box& range, AccessibleFn accessible,
                   CoverFn on_cover, ResultFn on_result) {
  using Id = typename Tree::NodeId;
  WalkCover(
      tree.Root(), range,
      [&tree](Id id) {
        const auto& node = tree.GetNode(id);
        return CoverView{node.box, node.is_leaf};
      },
      accessible, [&tree](Id id) { return tree.Children(id); }, on_cover,
      on_result);
}

// SP side: VO construction by WalkCover. Every cover contributes a single
// APS signature (derived with ABS.Relax, parallelized over `pool` when
// given).
Vo BuildRangeVo(const GridTree& tree, const VerifyKey& mvk, const Box& range,
                const RoleSet& user_roles, const RoleSet& universe, Rng* rng,
                ThreadPool* pool = nullptr);

// Variant with an explicit relaxation target (the user's lacked-role set).
// Hierarchical role assignment (§8.1) passes the *reduced* lacked set here,
// shrinking every APS signature.
Vo BuildRangeVoWithLacked(const GridTree& tree, const VerifyKey& mvk,
                          const Box& range, const RoleSet& user_roles,
                          const RoleSet& lacked, Rng* rng,
                          ThreadPool* pool = nullptr);

// User side: soundness + completeness verification (Algorithm 3, bottom).
// APS entries verify against ctx.SuperPolicy(), so a context carrying the
// §8.1 reduced lacked set checks VOs built by BuildRangeVoWithLacked. On
// success, appends the accessible result records to `results` (if not
// null); on failure, the results whose signatures verified before the
// first failure (see core/parallel_verify.h).
VerifyResult VerifyRangeVo(const VerifyContext& ctx, const Box& range,
                           const Vo& vo, std::vector<Record>* results);

// Declassification gate for wire-decoded VOs: verification is the trust
// boundary, so the tainted value feeds the checked path directly.
inline VerifyResult VerifyRangeVo(const VerifyContext& ctx, const Box& range,
                                  const common::Untrusted<Vo>& vo,
                                  std::vector<Record>* results) {
  // untrusted-ok: Verify*Vo is the declassification gate for SP bytes.
  return VerifyRangeVo(ctx, range, vo.Unvalidated(), results);
}

// Shared builder stage (range, join and equality VOs).

// The APS entry proving `node` inaccessible: its APP signature relaxed
// (ABS.Relax) to the super policy ∨ lacked. A leaf becomes an
// InaccessibleRecordEntry carrying only hash(v), an internal node an
// InaccessibleBoxEntry.
VoEntry RelaxNode(const VerifyKey& mvk, const GridTree::Node& node,
                  const RoleSet& lacked, Rng* rng);

// RelaxNode over every node; the entries come back in `nodes` order. Every
// relaxation is queued from `rng` in node order on one abs::SignBatch,
// whose multiply units `pool` (if it has two or more threads) runs in
// parallel. The bytes depend on `rng` alone, not on the pool.
std::vector<VoEntry> RelaxNodes(const std::vector<const GridTree::Node*>& nodes,
                                const VerifyKey& mvk, const RoleSet& lacked,
                                Rng* rng, ThreadPool* pool);

// Shared verifier helpers (range, join, kd-tree and duplicate VOs).

// The one coverage check: every region must be a well-formed box of the
// range's dimensionality that intersects `range` (a region may cross its
// boundary: an APS proves its whole box); clipped to the range, the regions
// must be pairwise disjoint and tile it exactly. A failure's entry_index is
// the index into `regions`.
VerifyResult CheckCoverage(const Box& range, const std::vector<Box>& regions);

// kBadQuery unless `range` is a well-formed box inside the domain.
VerifyResult CheckQueryBox(const Domain& domain, const Box& range);

class SigBatch;

// Queues the APS check of an InaccessibleRecordEntry or InaccessibleBoxEntry
// against `super_policy` (which must outlive the batch); it fails with
// kBadSignature at `idx` and the detail matching the entry type. Returns
// false, queueing nothing, for any other entry type.
bool AddApsCheck(SigBatch* batch, const VoEntry& entry,
                 const Policy* super_policy, std::ptrdiff_t idx,
                 const char* record_detail, const char* box_detail);
// Its box case, for the kd and dup VOs, which list box entries apart.
void AddBoxApsCheck(SigBatch* batch, const InaccessibleBoxEntry& box,
                    const Policy* super_policy, std::ptrdiff_t idx,
                    const char* detail);

}  // namespace apqa::core

#endif  // APQA_CORE_RANGE_QUERY_H_
