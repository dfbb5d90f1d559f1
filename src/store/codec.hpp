#pragma once
// Versioned canonical encodings of the evaluation results the persistent
// store holds (DESIGN.md §16):
//
//   * sysmodel::NetworkEval — the NetworkEvaluator's unit of memoization;
//   * vfi::VfiDesign       — the PlatformCache's expensive design-flow
//                            result (the rest of a BuiltPlatform rebuilds
//                            deterministically from it);
//   * sysmodel::SystemReport / SystemComparison — whole sweep points, the
//     incremental sweep driver's unit of reuse.
//
// Every encoding starts with [codec version u32][kind tag u32]; a decoder
// rejects a foreign version or kind (and any length mismatch) by returning
// false, which the tiered lookup treats as a disk miss — stale or foreign
// records are recomputed, never trusted.  The hard contract, enforced by
// round-trip property tests (tests/test_store.cpp): decode(encode(x))
// reproduces every field of x bit-for-bit, including the Accumulator's
// internal Welford state, so a disk hit is indistinguishable from a fresh
// run.
//
// The encodings are the field descriptions of store/schema.hpp, which the
// cache keys share.  Bump kCodecVersion whenever a description gains, loses
// or reorders a field, and also whenever the code that computes a stored
// value may produce different bits for the same key (e.g. a solver whose
// floating-point evaluation order changed); old stores then degrade to cold
// caches automatically instead of serving results the current code would
// not reproduce.

#include <string>
#include <string_view>

#include "sysmodel/platform.hpp"
#include "sysmodel/system_sim.hpp"
#include "vfi/vf_assign.hpp"

namespace vfimr::store {

/// Version of the *value* encodings below (independent of the store's
/// record framing version, kStoreFormatVersion).
inline constexpr std::uint32_t kCodecVersion = 2;

std::string encode_network_eval(const sysmodel::NetworkEval& eval);
bool decode_network_eval(std::string_view bytes, sysmodel::NetworkEval& out);

std::string encode_vfi_design(const vfi::VfiDesign& design);
bool decode_vfi_design(std::string_view bytes, vfi::VfiDesign& out);

std::string encode_system_report(const sysmodel::SystemReport& report);
bool decode_system_report(std::string_view bytes,
                          sysmodel::SystemReport& out);

std::string encode_system_comparison(const sysmodel::SystemComparison& cmp);
bool decode_system_comparison(std::string_view bytes,
                              sysmodel::SystemComparison& out);

}  // namespace vfimr::store
