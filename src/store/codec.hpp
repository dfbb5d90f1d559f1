#pragma once
// Versioned canonical encodings of the evaluation results the persistent
// store holds (DESIGN.md §16):
//
//   * sysmodel::NetworkEval    — the NetworkEvaluator's unit of memoization;
//   * sysmodel::PlatformLayout — the PlatformCache's record: everything a
//                               platform's design search decides (the rest
//                               of a BuiltPlatform is assembled from it);
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
// cache keys share.  Bump kCodecVersion (store/eval_store.hpp) whenever a
// description gains, loses or reorders a field, and also whenever the code
// that computes a stored value may produce different bits for the same key
// (e.g. a solver whose floating-point evaluation order changed, or a change
// to the thread-mapping, wiring or WI-placement search a layout records).
// The version names the store's directory, so a bump starts a fresh one:
// the first run after it recomputes and writes back, the next is served
// from disk, and the current code never serves a result it would not
// reproduce.

#include <string>
#include <string_view>

#include "store/eval_store.hpp"
#include "sysmodel/platform.hpp"
#include "sysmodel/system_sim.hpp"

namespace vfimr::store {

std::string encode_network_eval(const sysmodel::NetworkEval& eval);
bool decode_network_eval(std::string_view bytes, sysmodel::NetworkEval& out);

std::string encode_platform_layout(const sysmodel::PlatformLayout& layout);
bool decode_platform_layout(std::string_view bytes,
                            sysmodel::PlatformLayout& out);

std::string encode_system_report(const sysmodel::SystemReport& report);
bool decode_system_report(std::string_view bytes,
                          sysmodel::SystemReport& out);

std::string encode_system_comparison(const sysmodel::SystemComparison& cmp);
bool decode_system_comparison(std::string_view bytes,
                              sysmodel::SystemComparison& out);

}  // namespace vfimr::store
