// Figure 12: effect of hierarchical role assignment (§8.1) on range query
// performance. A two-level hierarchy is simulated: two global parent roles
// are attached to the existing roles, policies are augmented with ancestor
// chains, and the user's inaccessible predicate is reduced to its top-most
// lacked roles.
#include "bench_util.h"
#include "core/hierarchy.h"

using namespace apqa;
using namespace apqa::bench;

int main() {
  PrintHeader("Figure 12", "flat vs hierarchical role assignment");
  DeployConfig cfg;
  int queries = QueriesPerRow();
  double sel = 0.04;

  // --- Flat baseline. ------------------------------------------------------
  Deployment flat = Deploy(cfg);
  QueryCosts flat_costs = MeasureRange(flat, sel, queries, /*basic=*/false);
  std::size_t flat_pred =
      core::SuperPolicyRoles(flat.owner->keys().universe, flat.user_roles)
          .size();

  // --- Hierarchical deployment. -------------------------------------------
  tpch::PolicyGen pgen(cfg.num_policies, cfg.num_roles, cfg.or_fan,
                       cfg.and_fan, cfg.seed);
  core::RoleHierarchy hierarchy;
  // Two global parents; every base role hangs under one of them.
  std::vector<std::string> base_roles(pgen.universe().begin(),
                                      pgen.universe().end());
  for (std::size_t i = 0; i < base_roles.size(); ++i) {
    hierarchy.AddEdge(i % 2 == 0 ? "RoleH0" : "RoleH1", base_roles[i]);
  }
  std::vector<policy::Policy> augmented;
  for (const auto& p : pgen.policies()) {
    augmented.push_back(hierarchy.Augment(p));
  }
  policy::RoleSet universe = pgen.universe();
  universe.insert("RoleH0");
  universe.insert("RoleH1");

  tpch::TpchGen gen(cfg.tpch_scale, cfg.seed);
  auto records = tpch::LineitemRecords(gen.Lineitem(), cfg.domain, augmented);
  core::DataOwner owner(universe, cfg.domain, cfg.seed);
  Timer build;
  core::GridTree tree = owner.BuildAds(records);
  double build_ms = build.ElapsedMs();
  core::ServiceProvider sp(owner.keys(), std::move(tree));

  policy::RoleSet user = hierarchy.Close(flat.user_roles);
  policy::RoleSet full_lacked =
      core::SuperPolicyRoles(owner.keys().universe, user);
  policy::RoleSet reduced = hierarchy.ReduceLackedSet(full_lacked);
  core::VerifyContext hctx(owner.keys().mvk, owner.keys().domain, user,
                           owner.keys().universe);
  hctx.lacked = reduced;

  crypto::Rng qrng(7);
  core::User huser(owner.keys(), owner.EnrollUser(user));
  QueryCosts h_costs;
  crypto::Rng sp_rng(31);
  for (int q = 0; q < queries; ++q) {
    core::Box range =
        tpch::RandomRangeQuery(owner.keys().domain, sel, &qrng);
    Timer t;
    core::Vo vo = core::BuildRangeVoWithLacked(sp.tree(), owner.keys().mvk,
                                               range, user, reduced, &sp_rng);
    h_costs.sp_ms += t.ElapsedMs();
    h_costs.vo_kb += vo.SerializedSize() / 1024.0;
    t.Reset();
    bool ok = core::VerifyRangeVo(hctx, range, vo, nullptr).ok();
    h_costs.user_ms += t.ElapsedMs();
    if (!ok) {
      std::fprintf(stderr, "BENCH BUG: hierarchical VO failed\n");
      return 1;
    }
  }
  h_costs.sp_ms /= queries;
  h_costs.user_ms /= queries;
  h_costs.vo_kb /= queries;

  std::printf("%-14s | %-14s | %-14s | %-16s | %-10s\n", "Variant",
              "Pred length", "SP CPU (ms)", "User CPU (ms)", "VO (KB)");
  std::printf("%-14s | %-14zu | %-14.0f | %-16.0f | %-10.0f\n", "Flat",
              flat_pred, flat_costs.sp_ms, flat_costs.user_ms,
              flat_costs.vo_kb);
  std::printf("%-14s | %-14zu | %-14.0f | %-16.0f | %-10.0f\n", "Hierarchical",
              reduced.size(), h_costs.sp_ms, h_costs.user_ms, h_costs.vo_kb);
  std::printf("\n(hierarchical DO build: %.0f ms — slightly above flat due to\n"
              " larger per-record policies, as the paper notes)\n", build_ms);
  std::printf("\nExpected shape (paper Fig 12): the reduced inaccessible\n"
              "predicate lowers SP/user CPU time and VO size.\n");
  return 0;
}
