// Verification-object (VO) entry types shared by equality, range, and join
// query authentication.
//
// A VO is a list of entries, each proving one disjoint piece of the query
// region:
//   * ResultEntry           — an accessible record with its APP signature;
//   * InaccessibleRecordEntry — a (possibly pseudo) record the user may not
//     access: only hash(v) and the APS signature under the user's super
//     access policy are revealed;
//   * InaccessibleBoxEntry  — an AP²G-tree node none of whose records are
//     accessible, proven with the node's APS signature.
#ifndef APQA_CORE_VO_H_
#define APQA_CORE_VO_H_

#include <string>
#include <variant>
#include <vector>

#include "common/serde.h"
#include "core/app_signature.h"
#include "core/record.h"

namespace apqa::core {

struct ResultEntry {
  Point key;
  std::string value;
  Policy policy;
  Signature app_sig;
};

struct InaccessibleRecordEntry {
  Point key;
  Digest value_hash;
  Signature aps_sig;
};

struct InaccessibleBoxEntry {
  Box box;
  Signature aps_sig;
};

using VoEntry =
    std::variant<ResultEntry, InaccessibleRecordEntry, InaccessibleBoxEntry>;

// The region of the query space that an entry accounts for.
Box EntryRegion(const VoEntry& entry);

// Conservative lower bound on the wire size of any VO entry (tag + point +
// minimum signature). Used to clamp declared entry counts against the
// remaining input bytes before any allocation.
inline constexpr std::size_t kMinVoEntryBytes = 32;

// Shared wire helpers, reused by the kd/dup/continuous VO serializers. The
// readers are strict: hostile input flags the reader (never silently
// coerces) — points are capped at 16 dimensions, boxes must be well-formed,
// and policies must parse and stay under a length cap (a short policy
// string can expand into a quadratically larger span-program matrix).
void WritePoint(common::ByteWriter* w, const Point& p);
Point ReadPoint(common::ByteReader* r);
void WriteBox(common::ByteWriter* w, const Box& b);
Box ReadBox(common::ByteReader* r);
Policy ReadPolicy(common::ByteReader* r);
// An inaccessible box entry without its tag, as the kd and dup VOs list it.
void WriteBoxEntry(common::ByteWriter* w, const InaccessibleBoxEntry& e);
InaccessibleBoxEntry ReadBoxEntry(common::ByteReader* r);

void SerializeEntry(common::ByteWriter* w, const VoEntry& entry);
VoEntry DeserializeEntry(common::ByteReader* r);

struct Vo {
  std::vector<VoEntry> entries;
  // Freshness attestation of the ADS the entries were drawn from; checked
  // against the caller's expected epoch before any per-entry work.
  EpochStamp stamp;

  void Serialize(common::ByteWriter* w) const;
  // Top-level wire entry point: SP bytes come back tainted and only escape
  // through a Verify*Vo gate (or an audited Unvalidated() call, lint R9).
  static common::Untrusted<Vo> Deserialize(common::ByteReader* r) {
    return common::Untrusted<Vo>(DeserializeRaw(r));
  }
  // Untainted variant for composite deserializers and test harnesses; in
  // src/ its call sites are confined to the serde layer (lint R10).
  static Vo DeserializeRaw(common::ByteReader* r);
  std::size_t SerializedSize() const;
};

}  // namespace apqa::core

#endif  // APQA_CORE_VO_H_
