/**
 * @file
 * Lane kernels for the arbitration hot paths: the u32 lane loops of
 * the two-phase arbitration (fabric/hirise.cc, arb/class_counter.hh).
 *
 * Every kernel is one plain scalar loop; there is no ISA dispatch.
 * Hand-written AVX2 and AVX-512 bodies did not win end to end
 * (docs/HOTPATH.md, "Kernels are scalar"). The bulk word operations
 * over BitVec storage live in BitVec itself (common/bitvec.hh).
 */

#ifndef HIRISE_COMMON_SIMD_HH
#define HIRISE_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace hirise::simd {

using Word = std::uint64_t;

// The one-value tier enum below exists only for the benchmark's
// `context` line (perfbench/src/main.cc), which prints
// tierName(activeTier()). It goes with the next benchmark change.
enum class Tier : std::uint8_t
{
    Scalar = 0,
};

inline Tier
activeTier()
{
    return Tier::Scalar;
}

inline const char *
tierName(Tier)
{
    return "scalar";
}

/**
 * Compact the indices i in [0, n) with v[i] != sentinel into @p out
 * (ascending), returning the count. Phase-1 request collection: the
 * dense request vector is mostly kNoRequest below saturation, and the
 * downstream binning wants just the requesting inputs.
 * @p out must have room for n entries.
 */
inline std::uint32_t
gatherNonSentinelU32(const std::uint32_t *v, std::uint32_t n,
                     std::uint32_t sentinel, std::uint32_t *out)
{
    std::uint32_t c = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (v[i] != sentinel)
            out[c++] = i;
    }
    return c;
}

/** v[i] >>= 1 for all i: the CLRG bank-wide halve-on-saturation. */
inline void
halveU32(std::uint32_t *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] >>= 1;
}

} // namespace hirise::simd

#endif // HIRISE_COMMON_SIMD_HH
