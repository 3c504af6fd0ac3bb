// Figure 13: acceleration by parallelism (§8.2) — SP range query time vs.
// number of worker threads mapping the independent ABS.Relax jobs.
//
// NOTE: on a 4-vCPU x86-64 VM, unlike the paper's 24-thread blade server,
// the wall-clock speedup is bounded by 4; the bench prints the host's
// hardware concurrency next to the per-thread-count wall times (see
// EXPERIMENTS.md).
#include <thread>

#include "bench_util.h"

using namespace apqa;
using namespace apqa::bench;

int main() {
  PrintHeader("Figure 13", "SP query time vs. number of threads");
  std::printf("hardware_concurrency=%u\n\n",
              std::thread::hardware_concurrency());
  DeployConfig cfg;
  tpch::PolicyGen pgen(cfg.num_policies, cfg.num_roles, cfg.or_fan,
                       cfg.and_fan, cfg.seed);
  tpch::TpchGen gen(cfg.tpch_scale, cfg.seed);
  auto records =
      tpch::LineitemRecords(gen.Lineitem(), cfg.domain, pgen.policies());
  core::DataOwner owner(pgen.universe(), cfg.domain, cfg.seed);
  core::GridTree tree = owner.BuildAds(records);
  policy::RoleSet roles = pgen.RolesForAccessFraction(0.2);

  int queries = QueriesPerRow();
  double sel = 0.08;
  std::printf("%-8s | %-16s\n", "Threads", "SP CPU wall (ms)");
  std::vector<int> thread_counts =
      FastMode() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8, 16};
  for (int threads : thread_counts) {
    core::ServiceProvider sp(owner.keys(), tree, threads);
    crypto::Rng qrng(7);
    double sp_ms = 0;
    for (int q = 0; q < queries; ++q) {
      core::Box range =
          tpch::RandomRangeQuery(owner.keys().domain, sel, &qrng);
      Timer t;
      core::Vo vo = sp.RangeQuery(range, roles);
      sp_ms += t.ElapsedMs();
      (void)vo;
    }
    std::printf("%-8d | %-16.0f\n", threads, sp_ms / queries);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape (paper Fig 13, on multi-core hardware):\n"
              "near-linear speedup up to ~16 threads, flattening beyond as\n"
              "the serial fraction and I/O dominate. On a 4-vCPU x86-64\n"
              "VM at most four relax jobs run at once, so the curve can\n"
              "only fall up to 4 threads and is flat beyond.\n");
  return 0;
}
