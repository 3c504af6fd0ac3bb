// Figure 11: join query performance (TPC-H Q12 shape: Lineitem ⋈ Orders on
// orderkey) vs. query range — Basic vs. AP2G-tree. Series: SP CPU time,
// user CPU time, VO size, and ABS.Relax calls per VO.
//
// With --json=PATH (or APQA_BENCH_JSON=PATH) every point is also recorded
// as rows "<scheme>_<metric>_sel<percent>", scheme basic or ap2g, metric
// sp_ms, user_ms, vo_kb or relaxations (e.g. "ap2g_vo_kb_sel5");
// BENCH_paper.json holds a full-mode capture.
#include "bench_util.h"

using namespace apqa;
using namespace apqa::bench;

int main(int argc, char** argv) {
  EnableJsonFromArgs(argc, argv);
  PrintHeader("Figure 11", "join query cost vs. query range (Basic vs AP2G)");
  DeployConfig cfg;
  cfg.domain = core::Domain{1, 8};  // 1-D orderkey domain, 256 keys

  tpch::PolicyGen pgen(cfg.num_policies, cfg.num_roles, cfg.or_fan,
                       cfg.and_fan, cfg.seed);
  tpch::TpchGen gen(cfg.tpch_scale, cfg.seed);
  auto lineitem =
      tpch::LineitemByOrderKey(gen.Lineitem(), cfg.domain, pgen.policies());
  auto orders =
      tpch::OrdersByOrderKey(gen.Orders(), cfg.domain, pgen.policies());

  core::DataOwner owner(pgen.universe(), cfg.domain, cfg.seed);
  core::ServiceProvider sp(owner.keys(), owner.BuildAds(lineitem));
  sp.AttachJoinTable(owner.BuildAds(orders));
  policy::RoleSet roles = pgen.RolesForAccessFraction(0.2);
  core::User user(owner.keys(), owner.EnrollUser(roles));
  std::printf("lineitem keys=%zu orders keys=%zu\n\n", lineitem.size(),
              orders.size());
  std::printf("%-10s | %-22s | %-22s | %-20s | %-16s\n", "Range",
              "SP CPU (ms) B/T", "User CPU (ms) B/T", "VO (KB) B/T",
              "Relax/VO B/T");

  int queries = QueriesPerRow();
  std::vector<double> sels = FastMode()
                                 ? std::vector<double>{0.05}
                                 : std::vector<double>{0.025, 0.05, 0.1, 0.2};
  crypto::Rng rng(99);
  for (double sel : sels) {
    QueryCosts basic, tree;
    for (int q = 0; q < queries; ++q) {
      core::Box range = tpch::RandomRangeQuery(cfg.domain, sel, &rng);
      Timer t;
      core::JoinVo basic_vo = sp.BasicJoinQuery(range, roles);
      basic.sp_ms += t.ElapsedMs();
      t.Reset();
      core::JoinVo tree_vo = sp.JoinQuery(range, roles);
      tree.sp_ms += t.ElapsedMs();
      basic.vo_kb += basic_vo.SerializedSize() / 1024.0;
      tree.vo_kb += tree_vo.SerializedSize() / 1024.0;
      basic.relaxations += Relaxations(basic_vo);
      tree.relaxations += Relaxations(tree_vo);
      std::vector<std::vector<core::Record>> r1, r2;
      t.Reset();
      bool ok1 = user.VerifyJoin(range, basic_vo, &r1).ok();
      basic.user_ms += t.ElapsedMs();
      t.Reset();
      bool ok2 = user.VerifyJoin(range, tree_vo, &r2).ok();
      tree.user_ms += t.ElapsedMs();
      if (!ok1 || !ok2 || r1.size() != r2.size()) {
        std::fprintf(stderr, "BENCH BUG: join mismatch\n");
        return 1;
      }
    }
    basic = PerQuery(basic, queries);
    tree = PerQuery(tree, queries);
    std::printf(
        "%-9.1f%% | %8.0f / %-11.0f | %8.0f / %-11.0f | %7.0f / %-10.0f | "
        "%6.1f / %-7.1f\n",
        sel * 100, basic.sp_ms, tree.sp_ms, basic.user_ms, tree.user_ms,
        basic.vo_kb, tree.vo_kb, basic.relaxations, tree.relaxations);
    std::fflush(stdout);
    RecordPoint("fig11_join", "basic", sel, basic);
    RecordPoint("fig11_join", "ap2g", sel, tree);
  }
  std::printf("\nExpected shape (paper Fig 11): AP2G-tree substantially lower\n"
              "than Basic on all metrics.\n");
  return 0;
}
