#include "crypto/ct_batch.h"

#include <algorithm>
#include <utility>

#include "crypto/mont_accel.h"
#include "crypto/serde.h"

namespace apqa::crypto {

static_assert(accel::kLadderWindows == 26 && accel::kLadderWindowBits == 5 &&
                  accel::kLadderEntries == 16,
              "lane ladder shape must match CtScalarMul");
static_assert(accel::kFixedWindows == FixedBaseTable<Fp>::kWindows &&
                  accel::kFixedEntries == FixedBaseTable<Fp>::kEntries &&
                  FixedBaseTable<Fp>::kWindowBits == 6 &&
                  accel::kFixedWindows == FixedBaseTable<Fp2>::kWindows &&
                  accel::kFixedEntries == FixedBaseTable<Fp2>::kEntries &&
                  FixedBaseTable<Fp2>::kWindowBits == 6,
              "lane fixed-base walk shape must match FixedBaseTable");

namespace {

constexpr std::size_t kLanes = 8;

// The lane kernels of each coordinate field.
template <typename F>
struct LaneKernels;

template <>
struct LaneKernels<Fp> {
  static constexpr std::size_t kParts = 1;  // Fp parts per element
  static constexpr std::size_t kMinJobs = CtMulBatch::kMinLaneJobs;
  using Point = accel::G1LanePoint;
  static constexpr auto kLadder = &accel::G1CtLadderX8;
  static constexpr auto kFixedBase = &accel::G1CtFixedBaseX8;
};

template <>
struct LaneKernels<Fp2> {
  static constexpr std::size_t kParts = 2;
  static constexpr std::size_t kMinJobs = CtMulBatch::kMinG2LaneJobs;
  using Point = accel::G2LanePoint;
  static constexpr auto kLadder = &accel::G2CtLadderX8;
  static constexpr auto kFixedBase = &accel::G2CtFixedBaseX8;
};

// The Fp parts of v in Montgomery form, 6 words each, at out.
void PutElement(const Fp& v, u64* out) {
  std::copy_n(v.MontgomeryRepr().begin(), 6, out);
}

void PutElement(const Fp2& v, u64* out) {
  PutElement(v.c0, out);
  PutElement(v.c1, out + 6);
}

void TakeElement(const u64* in, Fp* v) {
  Limbs<6> l;
  std::copy_n(in, 6, l.begin());
  *v = Fp::FromMontgomeryRepr(l);
}

void TakeElement(const u64* in, Fp2* v) {
  TakeElement(in, &v->c0);
  TakeElement(in + 6, &v->c1);
}

template <typename F>
void PutPoint(const CtPoint<F>& p, typename LaneKernels<F>::Point* out) {
  PutElement(p.x, out->x);
  PutElement(p.y, out->y);
  PutElement(p.z, out->z);
}

template <typename F>
CurvePoint<F> TakePoint(const typename LaneKernels<F>::Point& p) {
  CtPoint<F> q;
  TakeElement(p.x, &q.x);
  TakeElement(p.y, &q.y);
  TakeElement(p.z, &q.z);
  return CtToJacobian(q);
}

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

}  // namespace

template <typename F>
const std::vector<u64>& FixedBaseTable<F>::LaneEntries() const {
  std::call_once(lanes_->once, [this] {
    // Each entry's x parts, then its y parts: 2 * kParts Fp elements,
    // staged a window at a time.
    constexpr std::size_t kElems = 2 * LaneKernels<F>::kParts;
    u64 mont[kEntries * kElems * 6];
    lanes_->words.resize(entries_.size() * kElems * 8);
    for (std::size_t w = 0; w < kWindows; ++w) {
      for (std::size_t e = 0; e < kEntries; ++e) {
        const Entry& entry = entries_[w * kEntries + e];
        PutElement(entry.x, &mont[e * kElems * 6]);
        PutElement(entry.y, &mont[(e * kElems + kElems / 2) * 6]);
      }
      accel::LaneForm(LaneConstants(), mont, kEntries * kElems,
                      &lanes_->words[w * kEntries * kElems * 8]);
    }
  });
  return lanes_->words;
}

template const std::vector<u64>& FixedBaseTable<Fp>::LaneEntries() const;
template const std::vector<u64>& FixedBaseTable<Fp2>::LaneEntries() const;

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

template <typename F>
void CtMulBatch::RunGroup(const std::vector<Job<F>>& queue,
                          std::vector<CurvePoint<F>>* results,
                          const std::size_t* jobs, std::size_t n) {
  using K = LaneKernels<F>;
  const FixedBaseTable<F>* table = queue[jobs[0]].table;
  if (!accel::IfmaLanesActive() || n < K::kMinJobs ||
      (table != nullptr && table->InfinityBase())) {
    for (std::size_t i = 0; i < n; ++i) {
      const Job<F>& job = queue[jobs[i]];
      CurvePoint<F>& slot = (*results)[jobs[i]];
      slot = job.table != nullptr ? job.table->MulCt(job.k)
                                  : CtScalarMul(slot, job.k);
    }
    return;
  }
  // Spare lanes repeat lane 0: the kernels load them from lane 0 too.
  constexpr std::size_t kMaxWindows = accel::kLadderWindows;
  u64 mag[2 * kMaxWindows * kLanes], neg[2 * kMaxWindows * kLanes];
  typename K::Point out[kLanes];
  if (table == nullptr) {
    typename K::Point base[kLanes];
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const std::size_t j = jobs[lane < n ? lane : 0];
      FillDigits<accel::kLadderWindowBits>(queue[j].k, accel::kLadderWindows,
                                           lane, mag, neg);
      if (lane < n) PutPoint(CtFromJacobian((*results)[j]), &base[lane]);
    }
    K::kLadder(LaneConstants(), base, mag, neg, static_cast<int>(n), out,
               ct_trace::hook);
  } else {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      FillDigits<FixedBaseTable<F>::kWindowBits>(
          queue[jobs[lane < n ? lane : 0]].k, accel::kFixedWindows, lane, mag,
          neg);
    }
    K::kFixedBase(LaneConstants(), table->LaneEntries().data(), mag, neg,
                  static_cast<int>(n), out, ct_trace::hook);
  }
  for (std::size_t i = 0; i < n; ++i) {
    (*results)[jobs[i]] = TakePoint<F>(out[i]);
  }
}

template <typename F>
void CtMulBatch::PlanGroups(const std::vector<Job<F>>& queue,
                            std::vector<std::size_t>* order,
                            std::vector<Unit>* units, bool g2) {
  // Job indices in group order: the ladders, then each table's walks,
  // tables in order of first use.
  const std::size_t first = order->size();
  std::vector<std::pair<const FixedBaseTable<F>*, std::vector<std::size_t>>>
      by_table;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const FixedBaseTable<F>* t = queue[i].table;
    if (t == nullptr) {
      order->push_back(i);
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
  auto cut = [units, g2](std::size_t begin, std::size_t end) {
    for (std::size_t b = begin; b < end; b += kLanes) {
      units->push_back({b, std::min(end, b + kLanes), g2});
    }
  };
  cut(first, order->size());
  for (const auto& [t, idx] : by_table) {
    const std::size_t begin = order->size();
    order->insert(order->end(), idx.begin(), idx.end());
    cut(begin, order->size());
  }
}

void CtMulBatch::Run(const ParallelFor& parallel_for) {
  // G2 groups first: they are the larger units, so a pool that takes units
  // in order ends on the small ones.
  std::vector<std::size_t> order;
  order.reserve(g1_.size() + g2_.size());
  std::vector<Unit> units;
  PlanGroups(g2_, &order, &units, true);
  PlanGroups(g1_, &order, &units, false);

  const std::function<void(std::size_t)> run = [&](std::size_t u) {
    const Unit& unit = units[u];
    const std::size_t* jobs = order.data() + unit.begin;
    if (unit.g2) {
      RunGroup(g2_, &g2_out_, jobs, unit.end - unit.begin);
    } else {
      RunGroup(g1_, &g1_out_, jobs, unit.end - unit.begin);
    }
  };
  if (parallel_for && units.size() > 1) {
    parallel_for(units.size(), run);
  } else {
    for (std::size_t u = 0; u < units.size(); ++u) run(u);
  }
}

}  // namespace apqa::crypto
