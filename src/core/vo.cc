#include "core/vo.h"

#include "crypto/serde.h"

namespace apqa::core {

void WritePoint(common::ByteWriter* w, const Point& p) {
  w->PutU32(static_cast<std::uint32_t>(p.size()));
  for (auto c : p) w->PutU32(c);
}

Point ReadPoint(common::ByteReader* r) {
  std::uint32_t n = r->GetU32();
  Point p;
  if (n > 16) {
    r->MarkBad(common::WireError::kLengthOverflow,
               "point dimensionality exceeds cap");
    return p;
  }
  p.reserve(n);
  for (std::uint32_t i = 0; i < n && r->ok(); ++i) p.push_back(r->GetU32());
  return p;
}

void WriteBox(common::ByteWriter* w, const Box& b) {
  WritePoint(w, b.lo);
  WritePoint(w, b.hi);
}

Box ReadBox(common::ByteReader* r) {
  Box b;
  b.lo = ReadPoint(r);
  b.hi = ReadPoint(r);
  if (r->ok() && !b.WellFormed()) {
    r->MarkBad(common::WireError::kMalformed, "box not well-formed");
  }
  return b;
}

namespace {

// A policy of L leaves expands into an L-row span-program matrix whose
// column count also grows with nesting, so a kilobyte of "a&a&..." could
// drive a multi-megabyte allocation at verification time. 512 leaves is an
// order of magnitude above anything the builders emit.
constexpr std::size_t kMaxPolicyLeaves = 512;

}  // namespace

Policy ReadPolicy(common::ByteReader* r) {
  std::string text = r->GetString();
  Policy fallback = Policy::Var(kPseudoRole);
  if (!r->ok()) return fallback;
  auto parsed = Policy::TryParse(text);
  if (!parsed.has_value()) {
    r->MarkBad(common::WireError::kBadPolicy, "policy failed to parse");
    return fallback;
  }
  if (parsed->Length() > kMaxPolicyLeaves) {
    r->MarkBad(common::WireError::kBadPolicy, "policy exceeds leaf cap");
    return fallback;
  }
  return std::move(*parsed);
}

Box EntryRegion(const VoEntry& entry) {
  if (const auto* res = std::get_if<ResultEntry>(&entry)) {
    return Box{res->key, res->key};
  }
  if (const auto* rec = std::get_if<InaccessibleRecordEntry>(&entry)) {
    return Box{rec->key, rec->key};
  }
  return std::get<InaccessibleBoxEntry>(entry).box;
}

void SerializeEntry(common::ByteWriter* w, const VoEntry& entry) {
  if (const auto* res = std::get_if<ResultEntry>(&entry)) {
    w->PutU8(0);
    WritePoint(w, res->key);
    w->PutString(res->value);
    w->PutString(res->policy.ToString());
    res->app_sig.Serialize(w);
  } else if (const auto* rec = std::get_if<InaccessibleRecordEntry>(&entry)) {
    w->PutU8(1);
    WritePoint(w, rec->key);
    w->PutBytes(rec->value_hash.data(), rec->value_hash.size());
    rec->aps_sig.Serialize(w);
  } else {
    w->PutU8(2);
    WriteBoxEntry(w, std::get<InaccessibleBoxEntry>(entry));
  }
}

void WriteBoxEntry(common::ByteWriter* w, const InaccessibleBoxEntry& e) {
  WriteBox(w, e.box);
  e.aps_sig.Serialize(w);
}

InaccessibleBoxEntry ReadBoxEntry(common::ByteReader* r) {
  InaccessibleBoxEntry e;
  e.box = ReadBox(r);
  e.aps_sig = Signature::Deserialize(r);
  return e;
}

VoEntry DeserializeEntry(common::ByteReader* r) {
  std::uint8_t tag = r->GetU8();
  switch (tag) {
    case 0: {
      ResultEntry e;
      e.key = ReadPoint(r);
      e.value = r->GetString();
      e.policy = ReadPolicy(r);
      e.app_sig = Signature::Deserialize(r);
      return e;
    }
    case 1: {
      InaccessibleRecordEntry e;
      e.key = ReadPoint(r);
      r->Get(e.value_hash.data(), e.value_hash.size());
      e.aps_sig = Signature::Deserialize(r);
      return e;
    }
    case 2:
      return ReadBoxEntry(r);
    default:
      r->MarkBad(common::WireError::kUnknownTag, "unknown VO entry tag");
      return InaccessibleBoxEntry{};
  }
}

void Vo::Serialize(common::ByteWriter* w) const {
  stamp.Serialize(w);
  w->PutList(entries, [w](const VoEntry& e) { SerializeEntry(w, e); });
}

Vo Vo::DeserializeRaw(common::ByteReader* r) {
  crypto::PointAdmission admit(r);
  Vo vo;
  vo.stamp = EpochStamp::DeserializeRaw(r);
  r->GetList(&vo.entries, kMinVoEntryBytes,
             [r] { return DeserializeEntry(r); });
  return vo;
}

std::size_t Vo::SerializedSize() const {
  common::ByteWriter w;
  Serialize(&w);
  return w.size();
}

}  // namespace apqa::core
