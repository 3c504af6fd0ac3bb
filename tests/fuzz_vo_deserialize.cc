// Fuzz target for the Vo deserialize + verify pipeline.
//
// Two build modes share one TestOneInput body:
//
//   * -DAPQA_LIBFUZZER=ON compiles with -fsanitize=fuzzer and libFuzzer
//     drives the input generation (`./fuzz_vo_deserialize corpus/`).
//   * By default a main() replays a deterministic seeded-mutation corpus
//     derived from a valid range VO, so the target exercises the same code
//     paths under plain ctest (and under ASan via scripts/check.sh) without
//     any fuzzing infrastructure.
//
// The property under test is purely "no crash / no sanitizer report": the
// pipeline must treat arbitrary bytes as a hostile SP's answer and either
// verify or reject them, never fault. Result-set soundness is covered by
// fault_injection_test.cc.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <vector>

#include "common/mutate.h"
#include "common/serde.h"
#include "core/range_query.h"
#include "net/frame.h"

namespace {

using namespace apqa;  // NOLINT: tiny fuzz driver

struct FuzzContext {
  abs::MasterKey msk;
  core::VerifyKey mvk;
  core::RoleSet universe{"RoleA", "RoleB"};
  core::RoleSet user{"RoleA"};
  core::Domain domain{1, 3};
  core::Box range{core::Point{0}, core::Point{7}};
  std::vector<std::uint8_t> baseline;
  std::vector<std::uint8_t> update_baseline;  // a valid kAdsUpdate payload
};

FuzzContext* Context() {
  static FuzzContext* ctx = [] {
    auto* c = new FuzzContext;
    core::Rng rng(0xF022);
    abs::Abs::Setup(&rng, &c->msk, &c->mvk);
    core::RoleSet all = c->universe;
    all.insert(core::kPseudoRole);
    abs::SigningKey sk = abs::Abs::KeyGen(c->msk, all, &rng);
    core::GridTree tree = core::GridTree::Build(
        c->mvk, sk, c->domain,
        {
            core::Record{core::Point{2}, "v2", core::Policy::Parse("RoleA")},
            core::Record{core::Point{6}, "v6", core::Policy::Parse("RoleB")},
        },
        &rng);
    core::Vo vo = core::BuildRangeVo(tree, c->mvk, c->range, c->user,
                                     c->universe, &rng);
    common::ByteWriter w;
    vo.Serialize(&w);
    c->baseline = w.data();
    // A valid DO->SP update payload, so mutations of it reach deep into the
    // AdsDelta decoder and the authenticity gate instead of dying on the
    // outer framing.
    core::AdsDelta delta = tree.ApplyUpdates(
        c->mvk, sk,
        {{core::AdsUpdateOp::Kind::kUpsert,
          core::Record{core::Point{3}, "v3", core::Policy::Parse("RoleA")}}},
        &rng);
    auto signed_update =
        core::SignAdsUpdate(c->mvk, sk, std::move(delta), &rng);
    c->update_baseline = net::EncodeAdsUpdatePayload(*signed_update);
    return c;
  }();
  return ctx;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  FuzzContext* c = Context();
  // Same bytes through both hostile-input pipelines: the SP->user VO path
  // and the DO->SP update path (total decode + authenticity gate).
  {
    common::ByteReader r(data, size);
    core::Vo vo = core::Vo::DeserializeRaw(&r);
    if (r.ok() && r.AtEnd()) {
      std::vector<core::Record> results;
      // discard-ok: the fuzzer only exercises crash-freedom; the
      // verdict on fuzzer-made bytes is meaningless.
      (void)core::VerifyRangeVo(
          core::VerifyContext(c->mvk, c->domain, c->user, c->universe),
          c->range, vo, &results);
    }
  }
  {
    core::SignedAdsUpdate update;
    std::vector<std::uint8_t> payload(data, data + size);
    if (net::DecodeAdsUpdatePayload(payload, &update)) {
      // discard-ok: the fuzzer only exercises crash-freedom; the
      // verdict on fuzzer-made bytes is meaningless.
      (void)core::VerifyAdsUpdateAuth(c->mvk, update);
    }
  }
  return 0;
}

#ifndef APQA_USE_LIBFUZZER
int main() {
  FuzzContext* c = Context();
  // The untouched baselines plus seeded mutation sweeps over each; every
  // input must come back without a crash.
  LLVMFuzzerTestOneInput(c->baseline.data(), c->baseline.size());
  LLVMFuzzerTestOneInput(c->update_baseline.data(),
                         c->update_baseline.size());
  common::MutRng rng(0xC0FFEE);
  constexpr int kIterations = 2000;
  int inputs = 2;
  for (const auto* seed : {&c->baseline, &c->update_baseline}) {
    for (int i = 0; i < kIterations; ++i) {
      std::vector<std::uint8_t> buf = *seed;
      // Stack up to three mutations so inputs drift further from valid
      // encodings than the single-step fault-injection corpus. The other
      // baseline donates splice material so VO bytes land in update fields
      // and vice versa.
      const std::vector<std::uint8_t>* donor =
          seed == &c->baseline ? &c->update_baseline : &c->baseline;
      int steps = 1 + static_cast<int>(rng.Below(3));
      for (int s = 0; s < steps; ++s) common::Mutate(&buf, &rng, donor);
      LLVMFuzzerTestOneInput(buf.data(), buf.size());
      ++inputs;
    }
  }
  std::printf("fuzz_vo_deserialize: %d corpus inputs, no crashes\n", inputs);
  return 0;
}
#endif
