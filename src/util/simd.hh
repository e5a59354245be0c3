/**
 * @file
 * Portable SIMD shims for the batched replay core. Each primitive
 * exists twice: a reference implementation in `simd::scalar` (plain
 * loops, always compiled, used by the differential test suite) and
 * the dispatching entry point in `simd` that selects an intrinsic
 * version when the target ISA provides one (SSE2 is the x86-64
 * baseline; AVX2 paths light up under -march=native via the
 * SFETCH_NATIVE build option). Every pair is bit-identical by
 * contract — the vector forms compute exactly the scalar result —
 * which tests/test_simd.cc enforces on exhaustive small inputs and
 * randomized spans.
 *
 * The operand shapes mirror the simulator's hot structures: u32
 * committed-path offset spans (OracleView::pcOff), packed u8
 * meta bytes (class/branch/taken), u64 cache tag ways, and int16
 * perceptron weight rows.
 */

#ifndef SFETCH_UTIL_SIMD_HH
#define SFETCH_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#define SFETCH_SIMD_SSE2 1
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#define SFETCH_SIMD_AVX2 1
#endif

namespace sfetch
{
namespace simd
{

/** Reference implementations: plain loops, no intrinsics. */
namespace scalar
{

/** Length of the common prefix of @p a and @p b (first @p n u32s). */
inline unsigned
matchLenU32(const std::uint32_t *a, const std::uint32_t *b, unsigned n)
{
    unsigned i = 0;
    while (i < n && a[i] == b[i])
        ++i;
    return i;
}

/**
 * Movemask-style bit extraction: bit i of the result is set when
 * (@p p[i] & @p bits) != 0. @p n must be <= 32.
 */
inline std::uint32_t
maskTestU8(const std::uint8_t *p, unsigned n, std::uint8_t bits)
{
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < n; ++i)
        mask |= std::uint32_t((p[i] & bits) != 0) << i;
    return mask;
}

/**
 * Bit i of the result is set when (@p p[i] & @p sel) == @p eq.
 * @p n must be <= 32.
 */
inline std::uint32_t
maskEqU8(const std::uint8_t *p, unsigned n, std::uint8_t sel,
         std::uint8_t eq)
{
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < n; ++i)
        mask |= std::uint32_t((p[i] & sel) == eq) << i;
    return mask;
}

/** Index of the first element equal to @p v, or @p n. */
inline std::size_t
findU64(const std::uint64_t *p, std::size_t n, std::uint64_t v)
{
    for (std::size_t i = 0; i < n; ++i)
        if (p[i] == v)
            return i;
    return n;
}

/** Index of the first element equal to @p a or @p b, or @p n. */
inline std::size_t
findEitherU64(const std::uint64_t *p, std::size_t n, std::uint64_t a,
              std::uint64_t b)
{
    for (std::size_t i = 0; i < n; ++i)
        if (p[i] == a || p[i] == b)
            return i;
    return n;
}

/**
 * Signed-select dot product: sum over i < @p n of w[i] when bit i of
 * @p bits is set, else -w[i]. The perceptron output kernel. @p n must
 * be <= 64; exact int arithmetic (no saturation), so the vector and
 * scalar forms agree bit for bit.
 */
inline int
dotSelect16(const std::int16_t *w, std::uint64_t bits, unsigned n)
{
    int y = 0;
    for (unsigned i = 0; i < n; ++i) {
        // (2*bit - 1) in {-1, +1}: multiply form instead of a branch
        // so the loop is trivially vectorizable.
        const int sign = int((bits >> i) & 1) * 2 - 1;
        y += sign * int(w[i]);
    }
    return y;
}

} // namespace scalar

#if defined(SFETCH_SIMD_SSE2)

inline unsigned
matchLenU32(const std::uint32_t *a, const std::uint32_t *b, unsigned n)
{
    unsigned i = 0;
#if defined(SFETCH_SIMD_AVX2)
    for (; i + 8 <= n; i += 8) {
        __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        std::uint32_t eq = std::uint32_t(
            _mm256_movemask_ps(_mm256_castsi256_ps(
                _mm256_cmpeq_epi32(va, vb))));
        if (eq != 0xffu) {
            // First differing lane ends the prefix.
            std::uint32_t diff = ~eq & 0xffu;
            unsigned lane = 0;
            while (!(diff & (1u << lane)))
                ++lane;
            return i + lane;
        }
    }
#endif
    for (; i + 4 <= n; i += 4) {
        __m128i va = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + i));
        __m128i vb = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b + i));
        std::uint32_t eq = std::uint32_t(
            _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(va, vb))));
        if (eq != 0xfu) {
            std::uint32_t diff = ~eq & 0xfu;
            unsigned lane = 0;
            while (!(diff & (1u << lane)))
                ++lane;
            return i + lane;
        }
    }
    while (i < n && a[i] == b[i])
        ++i;
    return i;
}

inline std::uint32_t
maskTestU8(const std::uint8_t *p, unsigned n, std::uint8_t bits)
{
    std::uint32_t mask = 0;
    unsigned i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(p + i));
        __m128i hit = _mm_cmpeq_epi8(
            _mm_and_si128(v, _mm_set1_epi8(char(bits))),
            _mm_setzero_si128());
        // movemask gives the ==0 lanes; invert for the !=0 ones.
        mask |= (~std::uint32_t(_mm_movemask_epi8(hit)) & 0xffffu) << i;
    }
    for (; i < n; ++i)
        mask |= std::uint32_t((p[i] & bits) != 0) << i;
    return mask;
}

inline std::uint32_t
maskEqU8(const std::uint8_t *p, unsigned n, std::uint8_t sel,
         std::uint8_t eq)
{
    std::uint32_t mask = 0;
    unsigned i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(p + i));
        __m128i hit = _mm_cmpeq_epi8(
            _mm_and_si128(v, _mm_set1_epi8(char(sel))),
            _mm_set1_epi8(char(eq)));
        mask |= (std::uint32_t(_mm_movemask_epi8(hit)) & 0xffffu) << i;
    }
    for (; i < n; ++i)
        mask |= std::uint32_t((p[i] & sel) == eq) << i;
    return mask;
}

inline std::size_t
findU64(const std::uint64_t *p, std::size_t n, std::uint64_t v)
{
    std::size_t i = 0;
#if defined(SFETCH_SIMD_AVX2)
    __m256i vv = _mm256_set1_epi64x(std::int64_t(v));
    for (; i + 4 <= n; i += 4) {
        __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + i));
        std::uint32_t eq = std::uint32_t(
            _mm256_movemask_pd(_mm256_castsi256_pd(
                _mm256_cmpeq_epi64(w, vv))));
        if (eq) {
            unsigned lane = 0;
            while (!(eq & (1u << lane)))
                ++lane;
            return i + lane;
        }
    }
#endif
    for (; i < n; ++i)
        if (p[i] == v)
            return i;
    return n;
}

inline std::size_t
findEitherU64(const std::uint64_t *p, std::size_t n, std::uint64_t a,
              std::uint64_t b)
{
    std::size_t i = 0;
#if defined(SFETCH_SIMD_AVX2)
    __m256i va = _mm256_set1_epi64x(std::int64_t(a));
    __m256i vb = _mm256_set1_epi64x(std::int64_t(b));
    for (; i + 4 <= n; i += 4) {
        __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + i));
        __m256i hit = _mm256_or_si256(_mm256_cmpeq_epi64(w, va),
                                      _mm256_cmpeq_epi64(w, vb));
        std::uint32_t eq = std::uint32_t(
            _mm256_movemask_pd(_mm256_castsi256_pd(hit)));
        if (eq) {
            unsigned lane = 0;
            while (!(eq & (1u << lane)))
                ++lane;
            return i + lane;
        }
    }
#endif
    for (; i < n; ++i)
        if (p[i] == a || p[i] == b)
            return i;
    return n;
}

inline int
dotSelect16(const std::int16_t *w, std::uint64_t bits, unsigned n)
{
#if defined(SFETCH_SIMD_AVX2)
    if (n >= 16) {
        // Per-lane history bit -> all-ones / all-zero int16 mask,
        // then a sign-select (x ^ m) - m where m = ~sel is the
        // two's-complement negate of the unselected lanes.
        const __m256i lane_bit = _mm256_setr_epi16(
            1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
            8192, 16384, short(0x8000u));
        __m256i acc = _mm256_setzero_si256();
        unsigned i = 0;
        for (; i + 16 <= n; i += 16) {
            __m256i chunk = _mm256_set1_epi16(
                short(std::uint16_t((bits >> i) & 0xffffu)));
            __m256i sel = _mm256_cmpeq_epi16(
                _mm256_and_si256(chunk, lane_bit), lane_bit);
            __m256i ws = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(w + i));
            // Multiply by +/-1 inside madd, which widens each
            // product to int32 *before* summing pairs: negating in
            // int16 first would wrap -32768, where the scalar
            // reference (which widens to int, then negates) does
            // not. sel ? 2-1 : 0-1 gives the +/-1 lanes.
            __m256i signv = _mm256_sub_epi16(
                _mm256_and_si256(sel, _mm256_set1_epi16(2)),
                _mm256_set1_epi16(1));
            acc = _mm256_add_epi32(acc,
                                   _mm256_madd_epi16(ws, signv));
        }
        __m128i lo = _mm256_castsi256_si128(acc);
        __m128i hi = _mm256_extracti128_si256(acc, 1);
        __m128i s = _mm_add_epi32(lo, hi);
        s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
        s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
        int y = _mm_cvtsi128_si32(s);
        for (; i < n; ++i) {
            const int sign = int((bits >> i) & 1) * 2 - 1;
            y += sign * int(w[i]);
        }
        return y;
    }
#endif
    return scalar::dotSelect16(w, bits, n);
}

#else // !SFETCH_SIMD_SSE2: forward to the reference loops.

using scalar::dotSelect16;
using scalar::findEitherU64;
using scalar::findU64;
using scalar::maskEqU8;
using scalar::maskTestU8;
using scalar::matchLenU32;

#endif

/** Index of the lowest set bit of a non-zero @p mask. */
inline unsigned
bottomBit(std::uint32_t mask)
{
#if defined(__GNUC__) || defined(__clang__)
    return unsigned(__builtin_ctz(mask));
#else
    unsigned i = 0;
    while (!(mask & 1u)) {
        mask >>= 1;
        ++i;
    }
    return i;
#endif
}

/** Index of the lowest set bit of a non-zero 64-bit @p mask. */
inline unsigned
bottomBit(std::uint64_t mask)
{
#if defined(__GNUC__) || defined(__clang__)
    return unsigned(__builtin_ctzll(mask));
#else
    unsigned i = 0;
    while (!(mask & 1u)) {
        mask >>= 1;
        ++i;
    }
    return i;
#endif
}

/** Index of the highest set bit of a non-zero @p mask. */
inline unsigned
topBit(std::uint32_t mask)
{
#if defined(__GNUC__) || defined(__clang__)
    return 31u - unsigned(__builtin_clz(mask));
#else
    unsigned i = 0;
    while (mask >>= 1)
        ++i;
    return i;
#endif
}

} // namespace simd
} // namespace sfetch

#endif // SFETCH_UTIL_SIMD_HH
