#include "core/duplicates.h"

#include "core/parallel_verify.h"
#include "core/range_query.h"
#include "crypto/serde.h"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace apqa::core {

namespace {

void PutU32Bytes(std::vector<std::uint8_t>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace

std::vector<Record> MergeSuperRecords(const std::vector<Record>& records) {
  // Group by (key, canonical policy text).
  std::map<std::pair<Point, std::string>, std::vector<const Record*>> groups;
  for (const Record& r : records) {
    groups[{r.key, r.policy.ToString()}].push_back(&r);
  }
  std::vector<Record> merged;
  merged.reserve(groups.size());
  for (auto& [group_key, members] : groups) {
    Record super;
    super.key = members[0]->key;
    super.policy = members[0]->policy;
    for (const Record* m : members) {
      // Length-prefixed concatenation keeps member boundaries recoverable.
      std::uint32_t n = static_cast<std::uint32_t>(m->value.size());
      for (int i = 0; i < 4; ++i) {
        super.value.push_back(static_cast<char>(n >> (8 * i)));
      }
      super.value += m->value;
    }
    merged.push_back(std::move(super));
  }
  return merged;
}

VirtualDimResult AddVirtualDimension(const Domain& domain,
                                     const std::vector<Record>& records,
                                     int vdim_bits, Rng* rng) {
  VirtualDimResult out;
  out.extended_domain = domain;
  out.extended_domain.dims = domain.dims + 1;
  // All dimensions of a Domain share one bit width; the virtual dimension
  // uses the same grid resolution, so vdim_bits must not exceed it.
  if (vdim_bits > domain.bits) {
    throw std::invalid_argument("vdim_bits exceeds domain bits");
  }
  std::uint32_t vdim_size = std::uint32_t{1} << vdim_bits;

  std::map<Point, std::vector<const Record*>> by_key;
  for (const Record& r : records) by_key[r.key].push_back(&r);
  for (auto& [key, members] : by_key) {
    if (members.size() > vdim_size) {
      throw std::invalid_argument("more duplicates than virtual coordinates");
    }
    // Distinct random virtual coordinates.
    std::set<std::uint32_t> used;
    for (const Record* m : members) {
      std::uint32_t v;
      do {
        v = static_cast<std::uint32_t>(rng->NextU64()) % vdim_size;
      } while (!used.insert(v).second);
      Record r = *m;
      r.key.push_back(v);
      out.records.push_back(std::move(r));
    }
  }
  return out;
}

Box ExtendRangeToVirtualDim(const Box& range, const Domain& extended_domain) {
  Box out = range;
  out.lo.push_back(0);
  out.hi.push_back(extended_domain.SideLength() - 1);
  return out;
}

std::vector<std::uint8_t> DupRecordMessage(const Point& key,
                                           const std::string& value,
                                           std::uint32_t dup_num,
                                           std::uint32_t dup_id) {
  return DupRecordMessageFromHash(
      key, crypto::Sha256::Hash(value.data(), value.size()), dup_num, dup_id);
}

std::vector<std::uint8_t> DupRecordMessageFromHash(const Point& key,
                                                   const Digest& value_hash,
                                                   std::uint32_t dup_num,
                                                   std::uint32_t dup_id) {
  std::vector<std::uint8_t> msg = RecordMessageFromHash(key, value_hash);
  PutU32Bytes(&msg, dup_num);
  PutU32Bytes(&msg, dup_id);
  return msg;
}

DupGridTree DupGridTree::Build(const VerifyKey& mvk, const SigningKey& sk_do,
                               const Domain& domain,
                               const std::vector<Record>& records, Rng* rng) {
  DupGridTree tree;
  tree.domain_ = domain;
  tree.levels_.resize(domain.bits + 1);

  std::map<Point, std::vector<const Record*>> by_key;
  for (const Record& r : records) {
    if (!domain.ContainsPoint(r.key)) {
      throw std::invalid_argument("record key outside domain");
    }
    by_key[r.key].push_back(&r);
  }

  int bits = domain.bits;
  tree.LayOutLevel(bits);
  Policy pseudo = Policy::Var(kPseudoRole);
  // Every signature's slot, in queue order: the leaves' members, then the
  // internal levels bottom-up. A laid-out level does not move.
  std::vector<Signature*> slots;
  abs::SignBatch batch(
      [&slots](std::size_t i) -> Signature& { return *slots[i]; });
  for (Node& node : tree.levels_[bits]) {
    auto it = by_key.find(node.box.lo);
    std::uint32_t dup_num = 0;
    if (it == by_key.end()) {
      node.is_pseudo = true;
      DupEntry e;
      e.record.key = node.box.lo;
      auto bytes = rng->Bytes(16);
      e.record.value.assign(bytes.begin(), bytes.end());
      e.record.policy = pseudo;
      e.dup_id = 0;
      node.dups.push_back(std::move(e));
      dup_num = 1;
      node.policy = pseudo;
    } else {
      dup_num = static_cast<std::uint32_t>(it->second.size());
      bool first = true;
      for (std::uint32_t d = 0; d < dup_num; ++d) {
        DupEntry e;
        e.record = *it->second[d];
        e.dup_id = d;
        node.dups.push_back(std::move(e));
        node.policy = first ? it->second[d]->policy.ToDnf()
                            : policy::OrCombineDnf(node.policy,
                                                   it->second[d]->policy);
        first = false;
      }
    }
    for (DupEntry& e : node.dups) {
      slots.push_back(&e.sig);
      SignApp(&batch, mvk, sk_do,
              DupRecordMessage(e.record.key, e.record.value, dup_num, e.dup_id),
              e.record.policy, rng);
    }
  }

  for (int level = bits - 1; level >= 0; --level) {
    tree.LayOutLevel(level);
    auto& nodes = tree.levels_[level];
    for (std::uint64_t i = 0; i < nodes.size(); ++i) {
      Node& node = nodes[i];
      node.policy = tree.OrOfChildren(NodeId{level, i});
      slots.push_back(&node.sig);
      SignApp(&batch, mvk, sk_do, BoxMessage(node.box), node.policy, rng);
    }
  }
  batch.Run();
  // Static ADS: attested once at epoch 0 with no incremental digest.
  tree.stamp_ = MakeEpochStamp(mvk, sk_do, 0, Digest{}, rng);
  return tree;
}

void DupGridTree::SerializedSize(std::size_t* structure_bytes,
                                 std::size_t* signature_bytes) const {
  std::size_t structure = 0, sigs = 0;
  for (const auto& level : levels_) {
    for (const Node& node : level) {
      structure += 8 * node.box.lo.size() + node.policy.ToString().size();
      if (node.is_leaf) {
        for (const auto& e : node.dups) {
          structure += e.record.value.size() + 8;
          sigs += e.sig.SerializedSize();
        }
      } else {
        sigs += node.sig.SerializedSize();
      }
    }
  }
  *structure_bytes = structure;
  *signature_bytes = sigs;
}

DupVo BuildDupRangeVo(const DupGridTree& tree, const VerifyKey& mvk,
                      const Box& range, const RoleSet& user_roles,
                      const RoleSet& universe, Rng* rng) {
  RoleSet lacked = SuperPolicyRoles(universe, user_roles);
  DupVo vo;
  vo.stamp = tree.stamp();
  // One APS per group member (the member count dup_num is disclosed —
  // non-ZK by design). The relaxations queue in walk order on one signing
  // stage; each lands in the member or box entry made for it.
  std::vector<std::pair<bool, std::size_t>> slots;  // (member?, entry index)
  abs::SignBatch batch([&](std::size_t i) -> Signature& {
    auto [member, at] = slots[i];
    return member ? vo.inaccessible[at].aps_sig : vo.boxes[at].aps_sig;
  });
  auto relax_member = [&](const DupEntry& e, std::uint32_t dup_num) {
    Digest vh =
        crypto::Sha256::Hash(e.record.value.data(), e.record.value.size());
    auto msg = DupRecordMessageFromHash(e.record.key, vh, dup_num, e.dup_id);
    slots.emplace_back(true, vo.inaccessible.size());
    vo.inaccessible.push_back(DupVo::DupInaccessibleEntry{
        e.record.key, vh, dup_num, e.dup_id, {}});
    RelaxApp(&batch, mvk, e.sig, e.record.policy, msg, lacked, rng);
  };
  WalkGridCover(
      tree, range,
      [&](DupGridTree::NodeId id) {
        return tree.GetNode(id).policy.Evaluate(user_roles);
      },
      [&](DupGridTree::NodeId id) {
        const DupGridTree::Node& node = tree.GetNode(id);
        if (node.is_leaf) {
          // Whole duplicate group inaccessible.
          std::uint32_t dup_num = static_cast<std::uint32_t>(node.dups.size());
          for (const DupEntry& e : node.dups) relax_member(e, dup_num);
          return;
        }
        slots.emplace_back(false, vo.boxes.size());
        vo.boxes.push_back(InaccessibleBoxEntry{node.box, {}});
        RelaxApp(&batch, mvk, node.sig, node.policy, BoxMessage(node.box),
                 lacked, rng);
      },
      [&](DupGridTree::NodeId id) {
        // Accessible leaf: emit each duplicate individually.
        const DupGridTree::Node& node = tree.GetNode(id);
        std::uint32_t dup_num = static_cast<std::uint32_t>(node.dups.size());
        for (const DupEntry& e : node.dups) {
          if (e.record.policy.Evaluate(user_roles)) {
            vo.results.push_back(DupVo::DupResultEntry{
                e.record.key, e.record.value, e.record.policy, dup_num,
                e.dup_id, e.sig});
          } else {
            relax_member(e, dup_num);
          }
        }
      });
  batch.Run();
  return vo;
}

void DupVo::Serialize(common::ByteWriter* w) const {
  stamp.Serialize(w);
  w->PutList(results, [w](const DupResultEntry& e) {
    WritePoint(w, e.key);
    w->PutString(e.value);
    w->PutString(e.policy.ToString());
    w->PutU32(e.dup_num);
    w->PutU32(e.dup_id);
    e.app_sig.Serialize(w);
  });
  w->PutList(inaccessible, [w](const DupInaccessibleEntry& e) {
    WritePoint(w, e.key);
    w->PutBytes(e.value_hash.data(), e.value_hash.size());
    w->PutU32(e.dup_num);
    w->PutU32(e.dup_id);
    e.aps_sig.Serialize(w);
  });
  w->PutList(boxes, [w](const auto& e) { WriteBoxEntry(w, e); });
}

DupVo DupVo::DeserializeRaw(common::ByteReader* r) {
  crypto::PointAdmission admit(r);
  DupVo vo;
  vo.stamp = EpochStamp::DeserializeRaw(r);
  r->GetList(&vo.results, kMinVoEntryBytes, [r] {
    DupResultEntry e;
    e.key = ReadPoint(r);
    e.value = r->GetString();
    e.policy = ReadPolicy(r);
    e.dup_num = r->GetU32();
    e.dup_id = r->GetU32();
    e.app_sig = Signature::Deserialize(r);
    return e;
  });
  r->GetList(&vo.inaccessible, kMinVoEntryBytes, [r] {
    DupInaccessibleEntry e;
    e.key = ReadPoint(r);
    r->Get(e.value_hash.data(), e.value_hash.size());
    e.dup_num = r->GetU32();
    e.dup_id = r->GetU32();
    e.aps_sig = Signature::Deserialize(r);
    return e;
  });
  r->GetList(&vo.boxes, kMinVoEntryBytes, [r] { return ReadBoxEntry(r); });
  return vo;
}

std::size_t DupVo::SerializedSize() const {
  common::ByteWriter w;
  Serialize(&w);
  return w.size();
}

VerifyResult VerifyDupRangeVo(const VerifyContext& ctx, const Box& range,
                              const DupVo& vo, std::vector<Record>* results) {
  const Policy super_policy = ctx.SuperPolicy();
  return RunVerify(
      ctx, {&vo.stamp},
      [&](SigBatch& batch) -> VerifyResult {
        if (VerifyResult q = CheckQueryBox(ctx.domain, range); !q.ok()) {
          return q;
        }
        // Group per-record entries by key: each covered key must present
        // dup_ids 0..dup_num-1 exactly once with a consistent dup_num.
        struct KeyGroup {
          std::uint32_t dup_num = 0;
          std::set<std::uint32_t> ids;
        };
        std::map<Point, KeyGroup> groups;
        auto account = [&](const Point& key, std::uint32_t dup_num,
                           std::uint32_t dup_id) -> bool {
          if (!ctx.domain.ContainsPoint(key) || !range.Contains(key)) {
            return false;
          }
          KeyGroup& g = groups[key];
          if (g.dup_num == 0) g.dup_num = dup_num;
          if (g.dup_num != dup_num || dup_id >= dup_num) return false;
          return g.ids.insert(dup_id).second;
        };

        // The group-completeness and coverage checks sit between the record
        // and box signature checks in the sequential verifier, so box jobs
        // are only queued once those structural checks pass.
        for (std::size_t i = 0; i < vo.results.size(); ++i) {
          const DupVo::DupResultEntry& e = vo.results[i];
          std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
          if (!account(e.key, e.dup_num, e.dup_id)) {
            return VerifyResult::Fail(
                VerifyCode::kDuplicateBookkeeping,
                "inconsistent duplicate bookkeeping (result)", idx);
          }
          if (!e.policy.Evaluate(ctx.roles)) {
            return VerifyResult::Fail(VerifyCode::kPolicyNotSatisfied,
                                      "result policy not satisfied", idx);
          }
          batch.Add(DupRecordMessage(e.key, e.value, e.dup_num, e.dup_id),
                    &e.policy, &e.app_sig,
                    VerifyResult::Fail(VerifyCode::kBadSignature,
                                       "dup APP signature verification failed",
                                       idx));
          if (results != nullptr) {
            batch.OnVerified([results, &e] {
              results->push_back(Record{e.key, e.value, e.policy});
            });
          }
        }
        for (std::size_t i = 0; i < vo.inaccessible.size(); ++i) {
          const DupVo::DupInaccessibleEntry& e = vo.inaccessible[i];
          std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(i);
          if (!account(e.key, e.dup_num, e.dup_id)) {
            return VerifyResult::Fail(
                VerifyCode::kDuplicateBookkeeping,
                "inconsistent duplicate bookkeeping (inaccessible)", idx);
          }
          batch.Add(DupRecordMessageFromHash(e.key, e.value_hash, e.dup_num,
                                             e.dup_id),
                    &super_policy, &e.aps_sig,
                    VerifyResult::Fail(VerifyCode::kBadSignature,
                                       "dup APS signature verification failed",
                                       idx));
        }
        // Every key group must be complete.
        for (const auto& kv : groups) {
          if (kv.second.ids.size() != kv.second.dup_num) {
            return VerifyResult::Fail(VerifyCode::kDuplicateBookkeeping,
                                      "missing duplicates for a key");
          }
        }
        // Coverage: key cells + boxes tile the range.
        std::vector<Box> coverage;
        for (const auto& kv : groups) {
          coverage.push_back(Box{kv.first, kv.first});
        }
        for (const auto& e : vo.boxes) coverage.push_back(e.box);
        if (VerifyResult c = CheckCoverage(range, coverage); !c.ok()) {
          return c;
        }
        for (std::size_t i = 0; i < vo.boxes.size(); ++i) {
          AddBoxApsCheck(&batch, vo.boxes[i], &super_policy,
                         static_cast<std::ptrdiff_t>(i),
                         "dup box APS signature verification failed");
        }
        return VerifyResult::Ok();
      });
}

}  // namespace apqa::core
