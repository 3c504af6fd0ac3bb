// Records and the discrete query-attribute space (paper §3).
//
// A record is ⟨o, v, Υ⟩: a d-dimensional discrete query key o, an opaque
// content attribute v, and a monotone access policy Υ. Keys live in a
// power-of-two grid domain so the AP²G-tree is a full 2^d-ary tree whose
// shape is independent of the data (a prerequisite for zero-knowledge).
#ifndef APQA_CORE_RECORD_H_
#define APQA_CORE_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "policy/policy.h"

namespace apqa::core {

using policy::Policy;
using policy::RoleSet;

// The pseudo access role Role_∅: possessed by no user, assigned to pseudo
// (non-existent) records so that inaccessible and absent data are
// indistinguishable (§5).
inline const char kPseudoRole[] = "Role@NULL";

// A point in the discrete query-attribute space.
using Point = std::vector<std::uint32_t>;

// Axis-aligned box with inclusive bounds.
struct Box {
  Point lo, hi;

  bool Contains(const Point& p) const {
    for (std::size_t d = 0; d < lo.size(); ++d) {
      if (p[d] < lo[d] || p[d] > hi[d]) return false;
    }
    return true;
  }

  bool ContainsBox(const Box& o) const {
    for (std::size_t d = 0; d < lo.size(); ++d) {
      if (o.lo[d] < lo[d] || o.hi[d] > hi[d]) return false;
    }
    return true;
  }

  bool Intersects(const Box& o) const {
    for (std::size_t d = 0; d < lo.size(); ++d) {
      if (o.hi[d] < lo[d] || o.lo[d] > hi[d]) return false;
    }
    return true;
  }

  // A box read off the wire must satisfy this before any other Box method
  // is called on it: Contains/Intersects index lo/hi without size checks,
  // and Volume() on an inverted box wraps the u64 cell count — which would
  // let a hostile SP forge coverage sums. Verifiers reject entries whose
  // boxes are not well-formed.
  bool WellFormed() const {
    if (lo.size() != hi.size()) return false;
    for (std::size_t d = 0; d < lo.size(); ++d) {
      if (lo[d] > hi[d]) return false;
    }
    return true;
  }

  // Number of unit cells (assumes it fits in 64 bits).
  std::uint64_t Volume() const {
    std::uint64_t v = 1;
    for (std::size_t d = 0; d < lo.size(); ++d) {
      v *= static_cast<std::uint64_t>(hi[d] - lo[d]) + 1;
    }
    return v;
  }

  bool operator==(const Box& o) const { return lo == o.lo && hi == o.hi; }
};

// The query-attribute domain: `dims` dimensions, each coordinate in
// [0, 2^bits).
struct Domain {
  int dims = 1;
  int bits = 8;

  std::uint32_t SideLength() const { return std::uint32_t{1} << bits; }
  std::uint64_t CellCount() const {
    std::uint64_t n = 1;
    for (int d = 0; d < dims; ++d) n *= SideLength();
    return n;
  }
  Box FullBox() const {
    Box b;
    b.lo.assign(dims, 0);
    b.hi.assign(dims, SideLength() - 1);
    return b;
  }
  bool ContainsPoint(const Point& p) const {
    if (static_cast<int>(p.size()) != dims) return false;
    for (auto c : p) {
      if (c >= SideLength()) return false;
    }
    return true;
  }
  bool operator==(const Domain&) const = default;
};

struct Record {
  Point key;          // query attribute o
  std::string value;  // content attribute v (opaque bytes)
  Policy policy;      // access policy Υ
};

}  // namespace apqa::core

#endif  // APQA_CORE_RECORD_H_
