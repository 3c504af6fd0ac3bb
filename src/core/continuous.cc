#include "core/continuous.h"

#include <algorithm>
#include <stdexcept>

#include "core/parallel_verify.h"
#include "core/vo.h"
#include "crypto/serde.h"

namespace apqa::core {

namespace {

void PutU64Bytes(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace

std::vector<std::uint8_t> GapMessage(const GapRegion& gap) {
  std::vector<std::uint8_t> buf = {'g', 'a', 'p', ':'};
  PutU64Bytes(&buf, gap.lo);
  PutU64Bytes(&buf, gap.hi);
  Digest d = crypto::Sha256::Hash(buf.data(), buf.size());
  return std::vector<std::uint8_t>(d.begin(), d.end());
}

std::vector<std::uint8_t> ContinuousRecordMessage(std::uint64_t key,
                                                  const std::string& value) {
  return ContinuousRecordMessageFromHash(
      key, crypto::Sha256::Hash(value.data(), value.size()));
}

std::vector<std::uint8_t> ContinuousRecordMessageFromHash(
    std::uint64_t key, const Digest& value_hash) {
  std::vector<std::uint8_t> kb;
  PutU64Bytes(&kb, key);
  Digest kh = crypto::Sha256::Hash(kb.data(), kb.size());
  std::vector<std::uint8_t> msg(kh.begin(), kh.end());
  msg.insert(msg.end(), value_hash.begin(), value_hash.end());
  return msg;
}

ContinuousAds ContinuousAds::Build(const VerifyKey& mvk,
                                   const SigningKey& sk_do,
                                   std::vector<ContinuousRecord> records,
                                   Rng* rng) {
  std::sort(records.begin(), records.end(),
            [](const ContinuousRecord& a, const ContinuousRecord& b) {
              return a.key < b.key;
            });
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].key == 0 || records[i].key == UINT64_MAX) {
      throw std::invalid_argument("continuous key out of range");
    }
    if (i > 0 && records[i].key == records[i - 1].key) {
      throw std::invalid_argument(
          "duplicate continuous keys; see core/duplicates.h");
    }
  }

  ContinuousAds ads;
  Policy pseudo = Policy::Var(kPseudoRole);
  // Queued gap, record, gap, ..., record, gap.
  abs::SignBatch batch([&ads](std::size_t i) -> Signature& {
    return i % 2 == 0 ? ads.gaps_[i / 2].sig : ads.records_[i / 2].sig;
  });
  std::uint64_t prev = 0;  // -inf sentinel
  for (const ContinuousRecord& r : records) {
    GapRegion gap{prev, r.key};
    ads.gaps_.push_back(SignedGap{gap, {}});
    SignApp(&batch, mvk, sk_do, GapMessage(gap), pseudo, rng);
    ads.records_.push_back(SignedRecord{r, {}});
    SignApp(&batch, mvk, sk_do, ContinuousRecordMessage(r.key, r.value),
            r.policy, rng);
    prev = r.key;
  }
  GapRegion last{prev, UINT64_MAX};
  ads.gaps_.push_back(SignedGap{last, {}});
  SignApp(&batch, mvk, sk_do, GapMessage(last), pseudo, rng);
  batch.Run();
  // Static ADS: attested once at epoch 0 with no incremental digest.
  ads.stamp_ = MakeEpochStamp(mvk, sk_do, 0, Digest{}, rng);
  return ads;
}

std::size_t ContinuousAds::SerializedSizeBytes() const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    n += 8 + r.record.value.size() + r.record.policy.ToString().size() +
         r.sig.SerializedSize();
  }
  for (const auto& g : gaps_) n += 16 + g.sig.SerializedSize();
  return n;
}

ContinuousVo BuildContinuousRangeVo(const ContinuousAds& ads,
                                    const VerifyKey& mvk, std::uint64_t alpha,
                                    std::uint64_t beta,
                                    const RoleSet& user_roles,
                                    const RoleSet& universe, Rng* rng) {
  RoleSet lacked = SuperPolicyRoles(universe, user_roles);
  ContinuousVo vo;
  vo.stamp = ads.stamp();
  // The inaccessible records queue first, then the gaps.
  abs::SignBatch batch([&vo](std::size_t i) -> Signature& {
    const std::size_t records = vo.inaccessible.size();
    return i < records ? vo.inaccessible[i].aps_sig
                       : vo.gaps[i - records].aps_sig;
  });
  for (const auto& sr : ads.records()) {
    if (sr.record.key < alpha || sr.record.key > beta) continue;
    if (sr.record.policy.Evaluate(user_roles)) {
      vo.results.push_back(ContinuousVo::ResultEntry{
          sr.record.key, sr.record.value, sr.record.policy, sr.sig});
    } else {
      Digest vh = crypto::Sha256::Hash(sr.record.value.data(),
                                       sr.record.value.size());
      auto msg = ContinuousRecordMessageFromHash(sr.record.key, vh);
      vo.inaccessible.push_back(
          ContinuousVo::InaccessibleEntry{sr.record.key, vh, {}});
      RelaxApp(&batch, mvk, sr.sig, sr.record.policy, msg, lacked, rng);
    }
  }
  Policy pseudo = Policy::Var(kPseudoRole);
  for (const auto& sg : ads.gaps()) {
    // Open interval (lo, hi) covers keys lo+1 .. hi-1; adjacent keys leave
    // an empty gap that covers nothing. Include a gap iff it is non-empty
    // and hi-1 >= alpha and lo+1 <= beta.
    if (sg.gap.hi - sg.gap.lo < 2) continue;
    if (sg.gap.hi <= alpha || sg.gap.lo >= beta) continue;
    vo.gaps.push_back(ContinuousVo::GapEntry{sg.gap, {}});
    RelaxApp(&batch, mvk, sg.sig, pseudo, GapMessage(sg.gap), lacked, rng);
  }
  batch.Run();
  return vo;
}

std::size_t ContinuousVo::SerializedSize() const {
  common::ByteWriter w;
  Serialize(&w);
  return w.size();
}

void ContinuousVo::Serialize(common::ByteWriter* w) const {
  stamp.Serialize(w);
  w->PutList(results, [w](const ResultEntry& e) {
    w->PutU64(e.key);
    w->PutString(e.value);
    w->PutString(e.policy.ToString());
    e.app_sig.Serialize(w);
  });
  w->PutList(inaccessible, [w](const InaccessibleEntry& e) {
    w->PutU64(e.key);
    w->PutBytes(e.value_hash.data(), e.value_hash.size());
    e.aps_sig.Serialize(w);
  });
  w->PutList(gaps, [w](const GapEntry& e) {
    w->PutU64(e.gap.lo);
    w->PutU64(e.gap.hi);
    e.aps_sig.Serialize(w);
  });
}

ContinuousVo ContinuousVo::DeserializeRaw(common::ByteReader* r) {
  crypto::PointAdmission admit(r);
  ContinuousVo vo;
  vo.stamp = EpochStamp::DeserializeRaw(r);
  r->GetList(&vo.results, kMinVoEntryBytes, [r] {
    ResultEntry e;
    e.key = r->GetU64();
    e.value = r->GetString();
    e.policy = ReadPolicy(r);
    e.app_sig = Signature::Deserialize(r);
    return e;
  });
  r->GetList(&vo.inaccessible, kMinVoEntryBytes, [r] {
    InaccessibleEntry e;
    e.key = r->GetU64();
    r->Get(e.value_hash.data(), e.value_hash.size());
    e.aps_sig = Signature::Deserialize(r);
    return e;
  });
  r->GetList(&vo.gaps, kMinVoEntryBytes, [r] {
    GapEntry e;
    e.gap.lo = r->GetU64();
    e.gap.hi = r->GetU64();
    e.aps_sig = Signature::Deserialize(r);
    return e;
  });
  return vo;
}

VerifyResult VerifyContinuousRangeVo(const VerifyContext& ctx,
                                     std::uint64_t alpha, std::uint64_t beta,
                                     const ContinuousVo& vo,
                                     std::vector<ContinuousRecord>* results) {
  const Policy super_policy = ctx.SuperPolicy();
  return RunVerify(
      ctx, {&vo.stamp},
      [&](SigBatch& batch) -> VerifyResult {
        if (alpha > beta) {
          return VerifyResult::Fail(VerifyCode::kBadQuery,
                                    "query range is inverted");
        }
        // Coverage: points and clipped open gaps must tile [alpha, beta].
        struct Interval {
          std::uint64_t lo, hi;
        };
        std::vector<Interval> intervals;
        for (std::size_t i = 0; i < vo.results.size(); ++i) {
          const auto& e = vo.results[i];
          if (e.key < alpha || e.key > beta) {
            return VerifyResult::Fail(VerifyCode::kRegionOutsideRange,
                                      "result key outside range",
                                      static_cast<std::ptrdiff_t>(i));
          }
          intervals.push_back({e.key, e.key});
        }
        for (std::size_t i = 0; i < vo.inaccessible.size(); ++i) {
          const auto& e = vo.inaccessible[i];
          if (e.key < alpha || e.key > beta) {
            return VerifyResult::Fail(VerifyCode::kRegionOutsideRange,
                                      "inaccessible key outside range",
                                      static_cast<std::ptrdiff_t>(i));
          }
          intervals.push_back({e.key, e.key});
        }
        for (std::size_t i = 0; i < vo.gaps.size(); ++i) {
          const auto& e = vo.gaps[i];
          std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
          if (e.gap.hi <= e.gap.lo || e.gap.hi - e.gap.lo < 2) {
            return VerifyResult::Fail(VerifyCode::kMalformedVo,
                                      "degenerate gap", idx);
          }
          std::uint64_t lo = std::max(e.gap.lo + 1, alpha);
          std::uint64_t hi = std::min(e.gap.hi - 1, beta);
          if (lo > hi) {
            return VerifyResult::Fail(VerifyCode::kRegionOutsideRange,
                                      "gap outside range", idx);
          }
          intervals.push_back({lo, hi});
        }
        std::sort(intervals.begin(), intervals.end(),
                  [](const Interval& a, const Interval& b) {
                    return a.lo < b.lo;
                  });
        std::uint64_t next = alpha;
        for (const auto& iv : intervals) {
          if (iv.lo != next) {
            return VerifyResult::Fail(iv.lo < next ? VerifyCode::kOverlap
                                                   : VerifyCode::kCoverageGap,
                                      "coverage hole or overlap");
          }
          next = iv.hi + 1;
        }
        if (next != beta + 1) {
          return VerifyResult::Fail(VerifyCode::kCoverageGap,
                                    "range not fully covered");
        }

        for (std::size_t i = 0; i < vo.results.size(); ++i) {
          const auto& e = vo.results[i];
          std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
          if (!e.policy.Evaluate(ctx.roles)) {
            return VerifyResult::Fail(VerifyCode::kPolicyNotSatisfied,
                                      "result policy not satisfied", idx);
          }
          batch.Add(ContinuousRecordMessage(e.key, e.value), &e.policy,
                    &e.app_sig,
                    VerifyResult::Fail(
                        VerifyCode::kBadSignature,
                        "record APP signature verification failed", idx));
          if (results != nullptr) {
            batch.OnVerified([results, &e] {
              results->push_back(ContinuousRecord{e.key, e.value, e.policy});
            });
          }
        }
        for (std::size_t i = 0; i < vo.inaccessible.size(); ++i) {
          const auto& e = vo.inaccessible[i];
          batch.Add(ContinuousRecordMessageFromHash(e.key, e.value_hash),
                    &super_policy, &e.aps_sig,
                    VerifyResult::Fail(
                        VerifyCode::kBadSignature,
                        "record APS signature verification failed",
                        static_cast<std::ptrdiff_t>(i)));
        }
        for (std::size_t i = 0; i < vo.gaps.size(); ++i) {
          const auto& e = vo.gaps[i];
          batch.Add(GapMessage(e.gap), &super_policy, &e.aps_sig,
                    VerifyResult::Fail(
                        VerifyCode::kBadSignature,
                        "gap APS signature verification failed",
                        static_cast<std::ptrdiff_t>(i)));
        }
        return VerifyResult::Ok();
      });
}

}  // namespace apqa::core
