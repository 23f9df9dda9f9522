/**
 * @file
 * Explicit SIMD kernels for the arbitration and simulation hot paths,
 * with a scalar fallback that is always compiled and
 * runtime-dispatched AVX2 and AVX-512 tiers.
 *
 * Build gating: the HIRISE_SIMD CMake option (ON by default) defines
 * HIRISE_SIMD_ENABLED; together with an x86-64 target that compiles
 * the AVX2 and AVX-512 bodies (per-function `target(...)` attributes,
 * so the rest of the binary stays portable). At runtime activeTier()
 * probes __builtin_cpu_supports once and caches the answer;
 * HIRISE_SIMD_FORCE_SCALAR=1 pins the scalar tier, and
 * HIRISE_SIMD_FORCE_TIER=scalar|avx2|avx512 pins any tier (clamped to
 * what build + host support) for same-host A/B runs.
 *
 * Determinism contract: every kernel computes the exact same bits as
 * its scalar counterpart (same word ops), so tier selection can never
 * change a simulated outcome — only how many lanes are processed per
 * instruction. tests/bitvec_test.cc compares the tiers word for word.
 */

#ifndef HIRISE_COMMON_SIMD_HH
#define HIRISE_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>

#if defined(HIRISE_SIMD_ENABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define HIRISE_SIMD_AVX2_COMPILED 1
#define HIRISE_SIMD_AVX512_COMPILED 1
#include <immintrin.h>
#endif

/** Feature set every AVX-512 kernel compiles against and the runtime
 *  probe requires: foundation + DQ + VL. */
#define HIRISE_AVX512_TARGET "avx512f,avx512dq,avx512vl"

namespace hirise::simd {

using Word = std::uint64_t;

enum class Tier : std::uint8_t
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/** Highest tier this build + host supports; resolved once per process
 *  (cpuid probe + HIRISE_SIMD_FORCE_* env checks, cached). */
Tier activeTier();

const char *tierName(Tier t);

/** Test hook: pin the dispatch tier (clamped down to what the
 *  build/host/environment supports). Not thread-safe against
 *  concurrent kernel calls; call it between runs only. */
void forceTier(Tier t);

/** At least the AVX2 tier is active (AVX-512 implies AVX2: every
 *  256-bit kernel is valid on an AVX-512 host). */
inline bool
avx2()
{
    return activeTier() >= Tier::Avx2;
}

inline bool
avx512()
{
    return activeTier() >= Tier::Avx512;
}

// ---------------------------------------------------------------------
// Word-array kernels (BitVec storage: little-endian uint64 words)
// ---------------------------------------------------------------------

inline void
zeroWordsScalar(Word *dst, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] = 0;
}

inline void
copyWordsScalar(Word *dst, const Word *src, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] = src[k];
}

inline void
andWordsScalar(Word *dst, const Word *src, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] &= src[k];
}

inline void
orWordsScalar(Word *dst, const Word *src, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] |= src[k];
}

inline void
andNotWordsScalar(Word *dst, const Word *src, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] &= ~src[k];
}

inline bool
anyWordScalar(const Word *src, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k)
        if (src[k])
            return true;
    return false;
}

/**
 * Matrix-arbiter dominance test: does any requestor other than the
 * candidate itself outrank it? True iff (req & ~row) has a set bit
 * besides the candidate's own (word @p self_word, mask @p self_mask).
 * This is the inner loop of arb::MatrixArbiter::pick().
 */
inline bool
losingAnyScalar(const Word *req, const Word *row, std::size_t n,
                std::size_t self_word, Word self_mask)
{
    for (std::size_t w = 0; w < n; ++w) {
        Word losing = req[w] & ~row[w];
        if (w == self_word)
            losing &= ~self_mask;
        if (losing)
            return true;
    }
    return false;
}

#ifdef HIRISE_SIMD_AVX2_COMPILED

__attribute__((target("avx2"))) inline void
zeroWordsAvx2(Word *dst, std::size_t n)
{
    std::size_t k = 0;
    const __m256i z = _mm256_setzero_si256();
    for (; k + 4 <= n; k += 4)
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + k), z);
    for (; k < n; ++k)
        dst[k] = 0;
}

__attribute__((target("avx2"))) inline void
copyWordsAvx2(Word *dst, const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + k),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(src + k)));
    }
    for (; k < n; ++k)
        dst[k] = src[k];
}

__attribute__((target("avx2"))) inline void
andWordsAvx2(Word *dst, const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + k));
        __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + k));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + k),
                            _mm256_and_si256(d, s));
    }
    for (; k < n; ++k)
        dst[k] &= src[k];
}

__attribute__((target("avx2"))) inline void
orWordsAvx2(Word *dst, const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + k));
        __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + k));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + k),
                            _mm256_or_si256(d, s));
    }
    for (; k < n; ++k)
        dst[k] |= src[k];
}

__attribute__((target("avx2"))) inline void
andNotWordsAvx2(Word *dst, const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + k));
        __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + k));
        // vpandn computes ~a & b, so src is the first operand.
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + k),
                            _mm256_andnot_si256(s, d));
    }
    for (; k < n; ++k)
        dst[k] &= ~src[k];
}

__attribute__((target("avx2"))) inline bool
anyWordAvx2(const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + k));
        if (!_mm256_testz_si256(s, s))
            return true;
    }
    for (; k < n; ++k)
        if (src[k])
            return true;
    return false;
}

__attribute__((target("avx2"))) inline bool
losingAnyAvx2(const Word *req, const Word *row, std::size_t n,
              std::size_t self_word, Word self_mask)
{
    std::size_t w = 0;
    for (; w + 4 <= n; w += 4) {
        __m256i r = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(req + w));
        __m256i p = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row + w));
        __m256i losing = _mm256_andnot_si256(p, r);
        if (self_word >= w && self_word < w + 4) {
            alignas(32) Word m[4] = {~Word(0), ~Word(0), ~Word(0),
                                     ~Word(0)};
            m[self_word - w] = ~self_mask;
            losing = _mm256_and_si256(
                losing,
                _mm256_load_si256(reinterpret_cast<const __m256i *>(m)));
        }
        if (!_mm256_testz_si256(losing, losing))
            return true;
    }
    for (; w < n; ++w) {
        Word losing = req[w] & ~row[w];
        if (w == self_word)
            losing &= ~self_mask;
        if (losing)
            return true;
    }
    return false;
}

#endif // HIRISE_SIMD_AVX2_COMPILED

#ifdef HIRISE_SIMD_AVX512_COMPILED

// 512-bit variants process 8 words per step and finish odd tails with
// masked loads/stores (masked-out lanes are architecturally never
// touched, so reading right up to the array end is safe).

__attribute__((target(HIRISE_AVX512_TARGET))) inline void
zeroWordsAvx512(Word *dst, std::size_t n)
{
    std::size_t k = 0;
    const __m512i z = _mm512_setzero_si512();
    for (; k + 8 <= n; k += 8)
        _mm512_storeu_si512(dst + k, z);
    if (k < n) {
        const __mmask8 m =
            static_cast<__mmask8>((1u << (n - k)) - 1u);
        _mm512_mask_storeu_epi64(dst + k, m, z);
    }
}

__attribute__((target(HIRISE_AVX512_TARGET))) inline void
copyWordsAvx512(Word *dst, const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8)
        _mm512_storeu_si512(dst + k, _mm512_loadu_si512(src + k));
    if (k < n) {
        const __mmask8 m =
            static_cast<__mmask8>((1u << (n - k)) - 1u);
        _mm512_mask_storeu_epi64(
            dst + k, m, _mm512_maskz_loadu_epi64(m, src + k));
    }
}

__attribute__((target(HIRISE_AVX512_TARGET))) inline void
andWordsAvx512(Word *dst, const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        _mm512_storeu_si512(
            dst + k, _mm512_and_si512(_mm512_loadu_si512(dst + k),
                                      _mm512_loadu_si512(src + k)));
    }
    if (k < n) {
        const __mmask8 m =
            static_cast<__mmask8>((1u << (n - k)) - 1u);
        _mm512_mask_storeu_epi64(
            dst + k, m,
            _mm512_and_si512(_mm512_maskz_loadu_epi64(m, dst + k),
                             _mm512_maskz_loadu_epi64(m, src + k)));
    }
}

__attribute__((target(HIRISE_AVX512_TARGET))) inline void
orWordsAvx512(Word *dst, const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        _mm512_storeu_si512(
            dst + k, _mm512_or_si512(_mm512_loadu_si512(dst + k),
                                     _mm512_loadu_si512(src + k)));
    }
    if (k < n) {
        const __mmask8 m =
            static_cast<__mmask8>((1u << (n - k)) - 1u);
        _mm512_mask_storeu_epi64(
            dst + k, m,
            _mm512_or_si512(_mm512_maskz_loadu_epi64(m, dst + k),
                            _mm512_maskz_loadu_epi64(m, src + k)));
    }
}

__attribute__((target(HIRISE_AVX512_TARGET))) inline void
andNotWordsAvx512(Word *dst, const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        // vpandnq computes ~a & b, so src is the first operand.
        _mm512_storeu_si512(
            dst + k, _mm512_andnot_si512(_mm512_loadu_si512(src + k),
                                         _mm512_loadu_si512(dst + k)));
    }
    if (k < n) {
        const __mmask8 m =
            static_cast<__mmask8>((1u << (n - k)) - 1u);
        _mm512_mask_storeu_epi64(
            dst + k, m,
            _mm512_andnot_si512(_mm512_maskz_loadu_epi64(m, src + k),
                                _mm512_maskz_loadu_epi64(m, dst + k)));
    }
}

__attribute__((target(HIRISE_AVX512_TARGET))) inline bool
anyWordAvx512(const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        __m512i s = _mm512_loadu_si512(src + k);
        if (_mm512_test_epi64_mask(s, s))
            return true;
    }
    if (k < n) {
        const __mmask8 m =
            static_cast<__mmask8>((1u << (n - k)) - 1u);
        __m512i s = _mm512_maskz_loadu_epi64(m, src + k);
        if (_mm512_test_epi64_mask(s, s))
            return true;
    }
    return false;
}

__attribute__((target(HIRISE_AVX512_TARGET))) inline bool
losingAnyAvx512(const Word *req, const Word *row, std::size_t n,
                std::size_t self_word, Word self_mask)
{
    std::size_t w = 0;
    while (w < n) {
        const std::size_t rem = n - w;
        const __mmask8 m =
            rem >= 8 ? static_cast<__mmask8>(0xff)
                     : static_cast<__mmask8>((1u << rem) - 1u);
        __m512i r = _mm512_maskz_loadu_epi64(m, req + w);
        __m512i p = _mm512_maskz_loadu_epi64(m, row + w);
        __m512i losing = _mm512_andnot_si512(p, r);
        if (self_word >= w && self_word < w + 8) {
            alignas(64) Word sm[8] = {~Word(0), ~Word(0), ~Word(0),
                                      ~Word(0), ~Word(0), ~Word(0),
                                      ~Word(0), ~Word(0)};
            sm[self_word - w] = ~self_mask;
            losing = _mm512_and_si512(losing, _mm512_load_si512(sm));
        }
        if (_mm512_test_epi64_mask(losing, losing))
            return true;
        w += 8;
    }
    return false;
}

#endif // HIRISE_SIMD_AVX512_COMPILED

// Dispatching fronts. The tier test is one cached load + predictable
// branch; callers in per-candidate loops should hoist the tier test
// themselves and call the *Scalar/*Avx2/*Avx512 variants directly.

inline void
zeroWords(Word *dst, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX512_COMPILED
    if (avx512())
        return zeroWordsAvx512(dst, n);
#endif
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return zeroWordsAvx2(dst, n);
#endif
    zeroWordsScalar(dst, n);
}

inline void
copyWords(Word *dst, const Word *src, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX512_COMPILED
    if (avx512())
        return copyWordsAvx512(dst, src, n);
#endif
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return copyWordsAvx2(dst, src, n);
#endif
    copyWordsScalar(dst, src, n);
}

inline void
andWords(Word *dst, const Word *src, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX512_COMPILED
    if (avx512())
        return andWordsAvx512(dst, src, n);
#endif
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return andWordsAvx2(dst, src, n);
#endif
    andWordsScalar(dst, src, n);
}

inline void
orWords(Word *dst, const Word *src, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX512_COMPILED
    if (avx512())
        return orWordsAvx512(dst, src, n);
#endif
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return orWordsAvx2(dst, src, n);
#endif
    orWordsScalar(dst, src, n);
}

inline void
andNotWords(Word *dst, const Word *src, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX512_COMPILED
    if (avx512())
        return andNotWordsAvx512(dst, src, n);
#endif
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return andNotWordsAvx2(dst, src, n);
#endif
    andNotWordsScalar(dst, src, n);
}

inline bool
anyWord(const Word *src, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX512_COMPILED
    if (avx512())
        return anyWordAvx512(src, n);
#endif
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return anyWordAvx2(src, n);
#endif
    return anyWordScalar(src, n);
}

inline bool
losingAny(const Word *req, const Word *row, std::size_t n,
          std::size_t self_word, Word self_mask)
{
#ifdef HIRISE_SIMD_AVX512_COMPILED
    if (avx512())
        return losingAnyAvx512(req, row, n, self_word, self_mask);
#endif
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return losingAnyAvx2(req, row, n, self_word, self_mask);
#endif
    return losingAnyScalar(req, row, n, self_word, self_mask);
}

// ---------------------------------------------------------------------
// u32-lane kernels for the two-phase arbitration hot path
// (fabric/hirise.cc, arb/sub_block_arbiter.cc, arb/class_counter.hh)
// ---------------------------------------------------------------------

/**
 * Compact the indices i in [0, n) with v[i] != sentinel into @p out
 * (ascending), returning the count. Phase-1 request collection: the
 * dense request vector is mostly kNoRequest below saturation, and the
 * downstream binning wants just the requesting inputs.
 * @p out must have room for n entries.
 */
inline std::uint32_t
gatherNonSentinelU32Scalar(const std::uint32_t *v, std::uint32_t n,
                           std::uint32_t sentinel, std::uint32_t *out)
{
    std::uint32_t c = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (v[i] != sentinel)
            out[c++] = i;
    }
    return c;
}

/** Minimum of v[0..n); ~0u when n == 0. CLRG best-class reduction. */
inline std::uint32_t
minU32Scalar(const std::uint32_t *v, std::size_t n)
{
    std::uint32_t best = ~0u;
    for (std::size_t i = 0; i < n; ++i)
        best = v[i] < best ? v[i] : best;
    return best;
}

/** Bitmask of positions with v[i] == value, written to
 *  ceil(n/64) words of @p out (tail bits zero). CLRG class-equality
 *  mask over BitVec word storage. */
inline void
eqBitsU32Scalar(const std::uint32_t *v, std::size_t n,
                std::uint32_t value, Word *out)
{
    for (std::size_t w = 0; w < (n + 63) / 64; ++w)
        out[w] = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (v[i] == value)
            out[i / 64] |= Word(1) << (i % 64);
    }
}

/** v[i] >>= 1 for all i: the CLRG bank-wide halve-on-saturation. */
inline void
halveU32Scalar(std::uint32_t *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] >>= 1;
}

/** acc[i] += scale where flags[i] != 0: the per-channel busy-cycle
 *  accumulation of beginArbitrate()/advanceIdle(). */
inline void
accumulateFlagsU64Scalar(std::uint64_t *acc, const std::uint8_t *flags,
                         std::size_t n, std::uint64_t scale)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (flags[i])
            acc[i] += scale;
    }
}

#ifdef HIRISE_SIMD_AVX2_COMPILED

__attribute__((target("avx2"))) inline std::uint32_t
gatherNonSentinelU32Avx2(const std::uint32_t *v, std::uint32_t n,
                         std::uint32_t sentinel, std::uint32_t *out)
{
    std::uint32_t c = 0;
    const __m256i sent =
        _mm256_set1_epi32(static_cast<int>(sentinel));
    std::uint32_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i));
        unsigned keep =
            0xffu & ~static_cast<unsigned>(_mm256_movemask_ps(
                        _mm256_castsi256_ps(
                            _mm256_cmpeq_epi32(x, sent))));
        while (keep) {
            out[c++] = i + static_cast<std::uint32_t>(
                               __builtin_ctz(keep));
            keep &= keep - 1;
        }
    }
    for (; i < n; ++i) {
        if (v[i] != sentinel)
            out[c++] = i;
    }
    return c;
}

__attribute__((target("avx2"))) inline std::uint32_t
minU32Avx2(const std::uint32_t *v, std::size_t n)
{
    std::size_t i = 0;
    __m256i acc = _mm256_set1_epi32(-1); // unsigned max
    for (; i + 8 <= n; i += 8) {
        acc = _mm256_min_epu32(
            acc, _mm256_loadu_si256(
                     reinterpret_cast<const __m256i *>(v + i)));
    }
    alignas(32) std::uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    std::uint32_t best = ~0u;
    for (std::uint32_t lane : lanes)
        best = lane < best ? lane : best;
    for (; i < n; ++i)
        best = v[i] < best ? v[i] : best;
    return best;
}

__attribute__((target("avx2"))) inline void
eqBitsU32Avx2(const std::uint32_t *v, std::size_t n,
              std::uint32_t value, Word *out)
{
    for (std::size_t w = 0; w < (n + 63) / 64; ++w)
        out[w] = 0;
    const __m256i val = _mm256_set1_epi32(static_cast<int>(value));
    std::size_t i = 0;
    // i advances by 8, so a chunk's 8 bits never straddle a word.
    for (; i + 8 <= n; i += 8) {
        __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i));
        unsigned bits = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(x, val))));
        out[i / 64] |= Word(bits) << (i % 64);
    }
    for (; i < n; ++i) {
        if (v[i] == value)
            out[i / 64] |= Word(1) << (i % 64);
    }
}

__attribute__((target("avx2"))) inline void
halveU32Avx2(std::uint32_t *v, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(v + i),
            _mm256_srli_epi32(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(v + i)),
                1));
    }
    for (; i < n; ++i)
        v[i] >>= 1;
}

__attribute__((target("avx2"))) inline void
accumulateFlagsU64Avx2(std::uint64_t *acc, const std::uint8_t *flags,
                       std::size_t n, std::uint64_t scale)
{
    const __m256i sc =
        _mm256_set1_epi64x(static_cast<long long>(scale));
    const __m256i zero = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        std::uint32_t four;
        __builtin_memcpy(&four, flags + i, 4);
        __m256i f = _mm256_cvtepu8_epi64(
            _mm_cvtsi32_si128(static_cast<int>(four)));
        // All-ones where the flag is set (flags are 0/1).
        __m256i on = _mm256_cmpgt_epi64(f, zero);
        __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + i));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(acc + i),
            _mm256_add_epi64(a, _mm256_and_si256(on, sc)));
    }
    for (; i < n; ++i) {
        if (flags[i])
            acc[i] += scale;
    }
}

#endif // HIRISE_SIMD_AVX2_COMPILED

#ifdef HIRISE_SIMD_AVX512_COMPILED

__attribute__((target(HIRISE_AVX512_TARGET))) inline std::uint32_t
gatherNonSentinelU32Avx512(const std::uint32_t *v, std::uint32_t n,
                           std::uint32_t sentinel, std::uint32_t *out)
{
    std::uint32_t c = 0;
    const __m512i sent =
        _mm512_set1_epi32(static_cast<int>(sentinel));
    __m512i idx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                    11, 12, 13, 14, 15);
    const __m512i step = _mm512_set1_epi32(16);
    std::uint32_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m512i x = _mm512_loadu_si512(v + i);
        __mmask16 keep = _mm512_cmpneq_epu32_mask(x, sent);
        _mm512_mask_compressstoreu_epi32(out + c, keep, idx);
        c += static_cast<std::uint32_t>(__builtin_popcount(keep));
        idx = _mm512_add_epi32(idx, step);
    }
    for (; i < n; ++i) {
        if (v[i] != sentinel)
            out[c++] = i;
    }
    return c;
}

__attribute__((target(HIRISE_AVX512_TARGET))) inline std::uint32_t
minU32Avx512(const std::uint32_t *v, std::size_t n)
{
    __m512i acc = _mm512_set1_epi32(-1); // unsigned max
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        acc = _mm512_min_epu32(acc, _mm512_loadu_si512(v + i));
    if (i < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        // Masked-out lanes stay at unsigned max so they never win.
        acc = _mm512_min_epu32(
            acc, _mm512_mask_loadu_epi32(_mm512_set1_epi32(-1), m,
                                         v + i));
    }
    return _mm512_reduce_min_epu32(acc);
}

__attribute__((target(HIRISE_AVX512_TARGET))) inline void
eqBitsU32Avx512(const std::uint32_t *v, std::size_t n,
                std::uint32_t value, Word *out)
{
    for (std::size_t w = 0; w < (n + 63) / 64; ++w)
        out[w] = 0;
    const __m512i val = _mm512_set1_epi32(static_cast<int>(value));
    std::size_t i = 0;
    // i advances by 16, so a chunk's bits never straddle a word.
    for (; i + 16 <= n; i += 16) {
        __mmask16 bits =
            _mm512_cmpeq_epu32_mask(_mm512_loadu_si512(v + i), val);
        out[i / 64] |= Word(bits) << (i % 64);
    }
    if (i < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        __mmask16 bits = _mm512_mask_cmpeq_epu32_mask(
            m, _mm512_maskz_loadu_epi32(m, v + i), val);
        out[i / 64] |= Word(bits) << (i % 64);
    }
}

__attribute__((target(HIRISE_AVX512_TARGET))) inline void
halveU32Avx512(std::uint32_t *v, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        _mm512_storeu_si512(
            v + i, _mm512_srli_epi32(_mm512_loadu_si512(v + i), 1));
    }
    if (i < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        _mm512_mask_storeu_epi32(
            v + i, m,
            _mm512_srli_epi32(_mm512_maskz_loadu_epi32(m, v + i), 1));
    }
}

__attribute__((target(HIRISE_AVX512_TARGET))) inline void
accumulateFlagsU64Avx512(std::uint64_t *acc, const std::uint8_t *flags,
                         std::size_t n, std::uint64_t scale)
{
    const __m512i sc =
        _mm512_set1_epi64(static_cast<long long>(scale));
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i f = _mm512_cvtepu8_epi64(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(flags + i)));
        __mmask8 on = _mm512_test_epi64_mask(f, f);
        __m512i a = _mm512_loadu_si512(acc + i);
        _mm512_storeu_si512(acc + i,
                            _mm512_mask_add_epi64(a, on, a, sc));
    }
    for (; i < n; ++i) {
        if (flags[i])
            acc[i] += scale;
    }
}

#endif // HIRISE_SIMD_AVX512_COMPILED

inline std::uint32_t
gatherNonSentinelU32(const std::uint32_t *v, std::uint32_t n,
                     std::uint32_t sentinel, std::uint32_t *out)
{
#ifdef HIRISE_SIMD_AVX512_COMPILED
    if (avx512())
        return gatherNonSentinelU32Avx512(v, n, sentinel, out);
#endif
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return gatherNonSentinelU32Avx2(v, n, sentinel, out);
#endif
    return gatherNonSentinelU32Scalar(v, n, sentinel, out);
}

inline std::uint32_t
minU32(const std::uint32_t *v, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX512_COMPILED
    if (avx512())
        return minU32Avx512(v, n);
#endif
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return minU32Avx2(v, n);
#endif
    return minU32Scalar(v, n);
}

inline void
eqBitsU32(const std::uint32_t *v, std::size_t n, std::uint32_t value,
          Word *out)
{
#ifdef HIRISE_SIMD_AVX512_COMPILED
    if (avx512())
        return eqBitsU32Avx512(v, n, value, out);
#endif
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return eqBitsU32Avx2(v, n, value, out);
#endif
    eqBitsU32Scalar(v, n, value, out);
}

inline void
halveU32(std::uint32_t *v, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX512_COMPILED
    if (avx512())
        return halveU32Avx512(v, n);
#endif
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return halveU32Avx2(v, n);
#endif
    halveU32Scalar(v, n);
}

inline void
accumulateFlagsU64(std::uint64_t *acc, const std::uint8_t *flags,
                   std::size_t n, std::uint64_t scale)
{
#ifdef HIRISE_SIMD_AVX512_COMPILED
    if (avx512())
        return accumulateFlagsU64Avx512(acc, flags, n, scale);
#endif
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return accumulateFlagsU64Avx2(acc, flags, n, scale);
#endif
    accumulateFlagsU64Scalar(acc, flags, n, scale);
}

} // namespace hirise::simd

#endif // HIRISE_COMMON_SIMD_HH
