// Outsourced analytics: the paper's evaluation workload in miniature.
//
// A TPC-H-style Lineitem table with three query attributes
// (shipdate, discount, quantity) is outsourced with randomly generated DNF
// access policies. The example runs:
//
//   * a Q6-shaped authenticated range query over the 3-D grid,
//   * a Q12-shaped authenticated equi-join (Lineitem ⋈ Orders on orderkey),
//   * the relaxed-model AP²kd-tree alternative for comparison.
#include <cstdio>

#include "core/kd_tree.h"
#include "core/system.h"
#include "tpch/tpch.h"

using namespace apqa;

int main() {
  // --- Generate the workload ----------------------------------------------
  core::Domain domain{/*dims=*/3, /*bits=*/3};  // 8x8x8 grid
  tpch::PolicyGen pgen(/*num_policies=*/10, /*num_roles=*/10, /*or_fan=*/3,
                       /*and_fan=*/2, /*seed=*/42);
  tpch::TpchGen gen(/*scale=*/0.1, /*seed=*/42);
  auto rows = gen.Lineitem();
  auto records = tpch::LineitemRecords(rows, domain, pgen.policies());
  std::printf("generated %zu lineitem rows -> %zu distinct grid records\n",
              rows.size(), records.size());

  core::DataOwner owner(pgen.universe(), domain, /*seed=*/42);
  std::printf("DO: building AP2G-tree over %llu cells...\n",
              static_cast<unsigned long long>(domain.CellCount()));
  core::ServiceProvider sp(owner.keys(), owner.BuildAds(records));

  policy::RoleSet roles = pgen.RolesForAccessFraction(0.2);
  core::User analyst(owner.keys(), owner.EnrollUser(roles));
  std::printf("analyst roles: ");
  for (const auto& r : roles) std::printf("%s ", r.c_str());
  std::printf("\n\n");

  // --- Q6-shaped range query -----------------------------------------------
  // SELECT * FROM lineitem WHERE shipdate BETWEEN ? AND ?
  //   AND discount BETWEEN ? AND ? AND quantity BETWEEN ? AND ?
  crypto::Rng qrng(7);
  core::Box q6 = tpch::RandomRangeQuery(domain, 0.1, &qrng);
  core::Vo vo = sp.RangeQuery(q6, roles);
  std::vector<core::Record> results;
  if (core::VerifyResult r = analyst.VerifyRange(q6, vo, &results); !r.ok()) {
    std::printf("Q6 VERIFICATION FAILED: %s\n", r.ToString().c_str());
    return 1;
  }
  std::printf("Q6 range [%u..%u]x[%u..%u]x[%u..%u]: verified, "
              "%zu accessible rows, VO %.1f KB (%zu entries)\n",
              q6.lo[0], q6.hi[0], q6.lo[1], q6.hi[1], q6.lo[2], q6.hi[2],
              results.size(), vo.SerializedSize() / 1024.0,
              vo.entries.size());

  // --- Q12-shaped join query -----------------------------------------------
  // SELECT * FROM orders, lineitem WHERE o.orderkey = l.orderkey
  //   AND l.orderkey BETWEEN ? AND ?
  core::Domain key_domain{/*dims=*/1, /*bits=*/6};
  auto l_by_key = tpch::LineitemByOrderKey(rows, key_domain, pgen.policies());
  auto o_by_key =
      tpch::OrdersByOrderKey(gen.Orders(), key_domain, pgen.policies());
  core::DataOwner join_owner(pgen.universe(), key_domain, /*seed=*/43);
  core::ServiceProvider join_sp(join_owner.keys(),
                                join_owner.BuildAds(l_by_key));
  join_sp.AttachJoinTable(join_owner.BuildAds(o_by_key));
  core::User join_user(join_owner.keys(), join_owner.EnrollUser(roles));

  core::Box q12{{8}, {47}};
  core::JoinVo jvo = join_sp.JoinQuery(q12, roles);
  std::vector<std::vector<core::Record>> pairs;
  if (core::VerifyResult r = join_user.VerifyJoin(q12, jvo, &pairs);
      !r.ok()) {
    std::printf("Q12 VERIFICATION FAILED: %s\n", r.ToString().c_str());
    return 1;
  }
  std::printf("Q12 join on orderkey in [8,47]: verified, %zu pairs, "
              "VO %.1f KB\n", pairs.size(), jvo.SerializedSize() / 1024.0);
  for (std::size_t i = 0; i < std::min<std::size_t>(pairs.size(), 3); ++i) {
    std::printf("    orderkey=%u  %s  <->  %s\n", pairs[i][0].key[0],
                pairs[i][0].value.c_str(), pairs[i][1].value.c_str());
  }

  // --- Relaxed model: AP2kd-tree -------------------------------------------
  core::KdTree kd = core::KdTree::Build(owner.keys().mvk, owner.signing_key(),
                                        domain, records, owner.rng());
  crypto::Rng krng(9);
  core::KdVo kvo = core::BuildKdRangeVo(kd, owner.keys().mvk, q6, roles,
                                        owner.keys().universe, &krng);
  std::vector<core::Record> kd_results;
  if (core::VerifyResult r =
          core::VerifyKdRangeVo(analyst.Context(), q6, kvo, &kd_results);
      !r.ok()) {
    std::printf("KD VERIFICATION FAILED: %s\n", r.ToString().c_str());
    return 1;
  }
  std::printf("\nAP2kd-tree (relaxed model), same Q6 range: verified, "
              "%zu rows, VO %.1f KB (%zu entries, vs %zu for AP2G)\n",
              kd_results.size(), kvo.SerializedSize() / 1024.0,
              kvo.EntryCount(), vo.entries.size());
  if (kd_results.size() != results.size()) {
    std::printf("RESULT MISMATCH between AP2G and AP2kd!\n");
    return 1;
  }
  return 0;
}
