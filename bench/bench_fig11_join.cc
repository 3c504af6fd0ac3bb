// Figure 11: join query performance (TPC-H Q12 shape: Lineitem ⋈ Orders on
// orderkey) vs. query range — Basic vs. AP2G-tree.
#include "bench_util.h"

using namespace apqa;
using namespace apqa::bench;

int main() {
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
  std::printf("%-10s | %-22s | %-22s | %-20s\n", "Range",
              "SP CPU (ms) B/T", "User CPU (ms) B/T", "VO (KB) B/T");

  int queries = QueriesPerRow();
  std::vector<double> sels = FastMode()
                                 ? std::vector<double>{0.05}
                                 : std::vector<double>{0.025, 0.05, 0.1, 0.2};
  crypto::Rng rng(99);
  for (double sel : sels) {
    double sp_b = 0, sp_t = 0, u_b = 0, u_t = 0, kb_b = 0, kb_t = 0;
    for (int q = 0; q < queries; ++q) {
      core::Box range = tpch::RandomRangeQuery(cfg.domain, sel, &rng);
      Timer t;
      core::JoinVo basic = sp.BasicJoinQuery(range, roles);
      sp_b += t.ElapsedMs();
      t.Reset();
      core::JoinVo tree = sp.JoinQuery(range, roles);
      sp_t += t.ElapsedMs();
      kb_b += basic.SerializedSize() / 1024.0;
      kb_t += tree.SerializedSize() / 1024.0;
      std::vector<std::vector<core::Record>> r1, r2;
      t.Reset();
      bool ok1 = user.VerifyJoin(range, basic, &r1).ok();
      u_b += t.ElapsedMs();
      t.Reset();
      bool ok2 = user.VerifyJoin(range, tree, &r2).ok();
      u_t += t.ElapsedMs();
      if (!ok1 || !ok2 || r1.size() != r2.size()) {
        std::fprintf(stderr, "BENCH BUG: join mismatch\n");
        return 1;
      }
    }
    std::printf("%-9.1f%% | %8.0f / %-11.0f | %8.0f / %-11.0f | %7.0f / %-10.0f\n",
                sel * 100, sp_b / queries, sp_t / queries, u_b / queries,
                u_t / queries, kb_b / queries, kb_t / queries);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape (paper Fig 11): AP2G-tree substantially lower\n"
              "than Basic on all metrics.\n");
  return 0;
}
