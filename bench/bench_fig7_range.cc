// Figure 7: range query performance vs. query range size — Basic
// (repeat-equality) vs. AP2G-tree. Series: SP CPU time, user CPU time,
// VO size, and ABS.Relax calls per VO.
//
// With --json=PATH (or APQA_BENCH_JSON=PATH) every point is also recorded
// as rows "<scheme>_<metric>_sel<percent>", scheme basic or ap2g, metric
// sp_ms, user_ms, vo_kb or relaxations (e.g. "ap2g_sp_ms_sel8");
// BENCH_paper.json holds a full-mode capture.
#include "bench_util.h"

using namespace apqa;
using namespace apqa::bench;

int main(int argc, char** argv) {
  EnableJsonFromArgs(argc, argv);
  PrintHeader("Figure 7", "range query cost vs. query range (Basic vs AP2G)");
  DeployConfig cfg;
  Deployment d = Deploy(cfg);
  std::printf("records=%zu domain=%d^%d user accesses ~20%%\n\n",
              d.record_count, 1 << cfg.domain.bits, cfg.domain.dims);
  std::printf("%-10s | %-22s | %-22s | %-20s | %-16s\n", "Range",
              "SP CPU (ms) B/T", "User CPU (ms) B/T", "VO (KB) B/T",
              "Relax/VO B/T");

  int queries = QueriesPerRow();
  std::vector<double> sels = FastMode()
                                 ? std::vector<double>{0.02, 0.08}
                                 : std::vector<double>{0.002, 0.01, 0.02, 0.04,
                                                       0.08};
  for (double sel : sels) {
    QueryCosts basic = MeasureRange(d, sel, queries, /*basic=*/true);
    QueryCosts tree = MeasureRange(d, sel, queries, /*basic=*/false);
    std::printf(
        "%-9.1f%% | %8.0f / %-11.0f | %8.0f / %-11.0f | %7.0f / %-10.0f | "
        "%6.1f / %-7.1f\n",
        sel * 100, basic.sp_ms, tree.sp_ms, basic.user_ms, tree.user_ms,
        basic.vo_kb, tree.vo_kb, basic.relaxations, tree.relaxations);
    std::fflush(stdout);
    RecordPoint("fig7_range", "basic", sel, basic);
    RecordPoint("fig7_range", "ap2g", sel, tree);
  }
  std::printf("\nExpected shape (paper Fig 7): AP2G-tree beats Basic on every\n"
              "metric; the gap widens with the range size because APS\n"
              "signatures of internal nodes summarize inaccessible subtrees.\n");
  return 0;
}
