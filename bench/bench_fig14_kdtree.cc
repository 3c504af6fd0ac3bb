// Figure 14: relaxing zero-knowledge confidentiality (§9.1) — AP2kd-tree
// vs. AP2G-tree range query performance on the same data.
#include "bench_util.h"
#include "core/kd_tree.h"

using namespace apqa;
using namespace apqa::bench;

int main() {
  PrintHeader("Figure 14", "AP2G-tree (zero-knowledge) vs AP2kd-tree (relaxed)");
  DeployConfig cfg;
  tpch::PolicyGen pgen(cfg.num_policies, cfg.num_roles, cfg.or_fan,
                       cfg.and_fan, cfg.seed);
  tpch::TpchGen gen(cfg.tpch_scale, cfg.seed);
  auto records =
      tpch::LineitemRecords(gen.Lineitem(), cfg.domain, pgen.policies());
  core::DataOwner owner(pgen.universe(), cfg.domain, cfg.seed);

  Timer t_grid;
  core::GridTree grid = owner.BuildAds(records);
  double grid_build = t_grid.ElapsedMs();
  Timer t_kd;
  core::KdTree kd = core::KdTree::Build(owner.keys().mvk, owner.signing_key(),
                                        cfg.domain, records, owner.rng());
  double kd_build = t_kd.ElapsedMs();
  std::size_t gs, gsig, ks, ksig;
  grid.SerializedSize(&gs, &gsig);
  kd.SerializedSize(&ks, &ksig);
  std::printf("records=%zu  grid: build %.0f ms, %zu nodes, %.2f MB |"
              " kd: build %.0f ms, %zu nodes, %.2f MB\n\n",
              records.size(), grid_build, grid.NodeCount(),
              (gs + gsig) / 1048576.0, kd_build, kd.nodes().size(),
              (ks + ksig) / 1048576.0);

  core::ServiceProvider sp(owner.keys(), grid);
  policy::RoleSet roles = pgen.RolesForAccessFraction(0.2);
  core::User user(owner.keys(), owner.EnrollUser(roles));

  int queries = QueriesPerRow();
  std::printf("%-10s | %-22s | %-22s | %-20s\n", "Range",
              "SP CPU (ms) G/kd", "User CPU (ms) G/kd", "VO (KB) G/kd");
  std::vector<double> sels = FastMode()
                                 ? std::vector<double>{0.04}
                                 : std::vector<double>{0.01, 0.02, 0.04, 0.08,
                                                       0.16};
  crypto::Rng sp_rng(41);
  for (double sel : sels) {
    crypto::Rng qrng(7);
    double sp_g = 0, sp_k = 0, u_g = 0, u_k = 0, kb_g = 0, kb_k = 0;
    for (int q = 0; q < queries; ++q) {
      core::Box range =
          tpch::RandomRangeQuery(owner.keys().domain, sel, &qrng);
      Timer t;
      core::Vo gvo = sp.RangeQuery(range, roles);
      sp_g += t.ElapsedMs();
      kb_g += gvo.SerializedSize() / 1024.0;
      t.Reset();
      core::KdVo kvo = core::BuildKdRangeVo(kd, owner.keys().mvk, range,
                                            roles, owner.keys().universe,
                                            &sp_rng);
      sp_k += t.ElapsedMs();
      kb_k += kvo.SerializedSize() / 1024.0;
      std::vector<core::Record> r1, r2;
      t.Reset();
      bool ok1 = user.VerifyRange(range, gvo, &r1).ok();
      u_g += t.ElapsedMs();
      t.Reset();
      bool ok2 = core::VerifyKdRangeVo(user.Context(), range, kvo, &r2).ok();
      u_k += t.ElapsedMs();
      if (!ok1 || !ok2 || r1.size() != r2.size()) {
        std::fprintf(stderr, "BENCH BUG: grid/kd result mismatch (%zu/%zu)\n",
                     r1.size(), r2.size());
        return 1;
      }
    }
    std::printf("%-9.1f%% | %8.0f / %-11.0f | %8.0f / %-11.0f | %7.0f / %-10.0f\n",
                sel * 100, sp_g / queries, sp_k / queries, u_g / queries,
                u_k / queries, kb_g / queries, kb_k / queries);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape (paper Fig 14): the AP2kd-tree substantially\n"
              "outperforms the AP2G-tree on all metrics — empty space costs\n"
              "nothing and policy-aware splits improve pruning.\n");
  return 0;
}
