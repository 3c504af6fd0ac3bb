#include "crypto/ct_batch.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "crypto/mont_accel.h"
#include "crypto/serde.h"

namespace apqa::crypto {

static_assert(accel::kG1LadderWindows == 26 &&
                  accel::kG1LadderWindowBits == 5 &&
                  accel::kG1LadderEntries == 16,
              "lane ladder shape must match CtScalarMul");
static_assert(accel::kG1FixedWindows == FixedBaseTable<Fp>::kWindows &&
                  accel::kG1FixedEntries == FixedBaseTable<Fp>::kEntries &&
                  FixedBaseTable<Fp>::kWindowBits == 6,
              "lane fixed-base walk shape must match FixedBaseTable");

template <>
const std::vector<u64>& FixedBaseTable<Fp>::LaneEntries() const {
  std::call_once(lanes_->once, [this] {
    const std::size_t n = entries_.size();
    auto xs = std::make_unique<u64[][6]>(n);
    auto ys = std::make_unique<u64[][6]>(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy_n(entries_[i].x.MontgomeryRepr().begin(), 6, xs[i]);
      std::copy_n(entries_[i].y.MontgomeryRepr().begin(), 6, ys[i]);
    }
    lanes_->words.resize(n * accel::kG1LaneEntryWords);
    accel::G1LaneTable(G1LaneConstants(), xs.get(), ys.get(), n,
                       lanes_->words.data());
  });
  return lanes_->words;
}

namespace {

constexpr std::size_t kLanes = 8;

// Fills the digit streams of lane `lane` in the layout of the lane kernels
// (crypto/mont_accel.h): window-major, k1 then k2, eight lanes each.
template <unsigned W>
void FillDigits(const SecretFr& k, std::size_t windows, std::size_t lane,
                u64* mag, u64* neg) {
  const GlvDecomp kd = GlvSplitLimbs(k.ct_ref().ToCanonical());
  for (std::size_t w = 0; w < windows; ++w) {
    const BoothDigit d1 = CtBoothDigit<W>(kd.k1, static_cast<unsigned>(w));
    const BoothDigit d2 = CtBoothDigit<W>(kd.k2, static_cast<unsigned>(w));
    mag[2 * w * kLanes + lane] = d1.mag;
    neg[2 * w * kLanes + lane] = d1.neg;
    mag[(2 * w + 1) * kLanes + lane] = d2.mag;
    neg[(2 * w + 1) * kLanes + lane] = d2.neg;
  }
}

void PutPoint(const CtPoint<Fp>& p, accel::G1LanePoint* out) {
  std::copy_n(p.x.MontgomeryRepr().begin(), 6, out->x);
  std::copy_n(p.y.MontgomeryRepr().begin(), 6, out->y);
  std::copy_n(p.z.MontgomeryRepr().begin(), 6, out->z);
}

G1 TakePoint(const accel::G1LanePoint& p) {
  auto coord = [](const u64* v) {
    Limbs<6> l;
    std::copy_n(v, 6, l.begin());
    return Fp::FromMontgomeryRepr(l);
  };
  return CtToJacobian(CtPoint<Fp>{coord(p.x), coord(p.y), coord(p.z)});
}

}  // namespace

std::size_t CtMulBatch::Add(const G1& base, const SecretFr& k) {
  g1_.push_back({nullptr, k});
  g1_out_.push_back(base);
  return g1_.size() - 1;
}

std::size_t CtMulBatch::Add(const FixedBaseTable<Fp>& tab, const SecretFr& k) {
  g1_.push_back({&tab, k});
  g1_out_.push_back(G1::Infinity());
  return g1_.size() - 1;
}

std::size_t CtMulBatch::Add(const G2& base, const SecretFr& k) {
  g2_.push_back({nullptr, k});
  g2_out_.push_back(base);
  return g2_.size() - 1;
}

std::size_t CtMulBatch::Add(const FixedBaseTable<Fp2>& tab,
                            const SecretFr& k) {
  g2_.push_back({&tab, k});
  g2_out_.push_back(G2::Infinity());
  return g2_.size() - 1;
}

void CtMulBatch::RunG1Group(const std::size_t* jobs, std::size_t n) {
  const FixedBaseTable<Fp>* table = g1_[jobs[0]].table;
  if (!accel::IfmaLanesActive() || n < kMinLaneJobs ||
      (table != nullptr && table->InfinityBase())) {
    for (std::size_t i = 0; i < n; ++i) {
      const Job<Fp>& job = g1_[jobs[i]];
      G1& slot = g1_out_[jobs[i]];
      slot = job.table != nullptr ? job.table->MulCt(job.k)
                                  : CtScalarMul(slot, job.k);
    }
    return;
  }
  // Spare lanes repeat lane 0: the kernels load them from lane 0 too.
  constexpr std::size_t kMaxWindows = accel::kG1LadderWindows;
  u64 mag[2 * kMaxWindows * kLanes], neg[2 * kMaxWindows * kLanes];
  accel::G1LanePoint out[kLanes];
  if (table == nullptr) {
    accel::G1LanePoint base[kLanes];
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const std::size_t j = jobs[lane < n ? lane : 0];
      FillDigits<accel::kG1LadderWindowBits>(
          g1_[j].k, accel::kG1LadderWindows, lane, mag, neg);
      if (lane < n) PutPoint(CtFromJacobian(g1_out_[j]), &base[lane]);
    }
    accel::G1CtLadderX8(G1LaneConstants(), base, mag, neg,
                        static_cast<int>(n), out, ct_trace::hook);
  } else {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      FillDigits<FixedBaseTable<Fp>::kWindowBits>(
          g1_[jobs[lane < n ? lane : 0]].k, accel::kG1FixedWindows, lane, mag,
          neg);
    }
    accel::G1CtFixedBaseX8(G1LaneConstants(), table->LaneEntries().data(), mag,
                           neg, static_cast<int>(n), out, ct_trace::hook);
  }
  for (std::size_t i = 0; i < n; ++i) g1_out_[jobs[i]] = TakePoint(out[i]);
}

void CtMulBatch::Run(const ParallelFor& parallel_for) {
  // G1 job indices in group order: the ladders, then each table's walks,
  // tables in order of first use.
  std::vector<std::size_t> order;
  order.reserve(g1_.size());
  std::vector<std::pair<const FixedBaseTable<Fp>*, std::vector<std::size_t>>>
      by_table;
  for (std::size_t i = 0; i < g1_.size(); ++i) {
    const FixedBaseTable<Fp>* t = g1_[i].table;
    if (t == nullptr) {
      order.push_back(i);
      continue;
    }
    auto it = std::find_if(by_table.begin(), by_table.end(),
                           [t](const auto& e) { return e.first == t; });
    if (it == by_table.end()) {
      by_table.emplace_back(t, std::vector<std::size_t>{});
      it = by_table.end() - 1;
    }
    it->second.push_back(i);
  }
  // A unit is [begin, end) of `order` (a G1 group), or one G2 job.
  struct Unit {
    std::size_t begin, end;
    bool g2;
  };
  std::vector<Unit> units;
  auto cut = [&units](std::size_t begin, std::size_t end) {
    for (std::size_t b = begin; b < end; b += kLanes) {
      units.push_back({b, std::min(end, b + kLanes), false});
    }
  };
  cut(0, order.size());
  for (const auto& [t, idx] : by_table) {
    const std::size_t begin = order.size();
    order.insert(order.end(), idx.begin(), idx.end());
    cut(begin, order.size());
  }
  for (std::size_t j = 0; j < g2_.size(); ++j) units.push_back({j, j, true});

  const std::function<void(std::size_t)> run = [&](std::size_t u) {
    const Unit& unit = units[u];
    if (!unit.g2) {
      RunG1Group(order.data() + unit.begin, unit.end - unit.begin);
      return;
    }
    const Job<Fp2>& job = g2_[unit.begin];
    G2& slot = g2_out_[unit.begin];
    slot = job.table != nullptr ? job.table->MulCt(job.k)
                                : CtScalarMul(slot, job.k);
  };
  if (parallel_for && units.size() > 1) {
    parallel_for(units.size(), run);
  } else {
    for (std::size_t u = 0; u < units.size(); ++u) run(u);
  }
}

}  // namespace apqa::crypto
