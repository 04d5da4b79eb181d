/**
 * @file
 * x86 implementations of the Vec interface (see simd.hpp for the
 * lane-wise semantic contract).
 *
 * VecSse2 compiles in every x86-64 TU (SSE2 is the baseline). VecAvx2
 * is only defined when the including TU is compiled with -mavx2; the
 * AVX2 tier TU is the only such file, and it deliberately does NOT
 * enable -mfma, so no implementation here can be contracted into a
 * fused multiply-add (mulAdd must keep scalar two-rounding semantics).
 *
 * max(a, b) compiles to a single maxps with SWAPPED operands:
 * MAXPS(src1, src2) returns src2 whenever either input is NaN or the
 * comparison ties (including -0 vs +0), so MAXPS(b, a) is bit-exactly
 * `(a < b) ? b : a` — the same select std::max performs.
 */

#ifndef BT_COMMON_SIMD_X86_HPP
#define BT_COMMON_SIMD_X86_HPP

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstdint>

#include "common/simd.hpp"

namespace bt::simd {

struct VecSse2
{
    static constexpr int width = 4;
    // Partials bounce through a stack buffer (SSE2 has no maskload):
    // a store-forwarding stall per call, so tails should go scalar.
    static constexpr bool fastPartial = false;
    __m128 v;

    static VecSse2
    zero()
    {
        return {_mm_setzero_ps()};
    }

    static VecSse2
    broadcast(float x)
    {
        return {_mm_set1_ps(x)};
    }

    static VecSse2
    loadu(const float* p)
    {
        return {_mm_loadu_ps(p)};
    }

    static VecSse2
    loadPartial(const float* p, int n)
    {
        alignas(16) float tmp[4] = {};
        for (int i = 0; i < n; ++i)
            tmp[i] = p[i];
        return {_mm_load_ps(tmp)};
    }

    static VecSse2
    gatherStride(const float* p, std::int64_t stride)
    {
        return {_mm_setr_ps(p[0], p[stride], p[2 * stride],
                            p[3 * stride])};
    }

    void
    storeu(float* p) const
    {
        _mm_storeu_ps(p, v);
    }

    void
    storePartial(float* p, int n) const
    {
        alignas(16) float tmp[4];
        _mm_store_ps(tmp, v);
        for (int i = 0; i < n; ++i)
            p[i] = tmp[i];
    }

    static VecSse2
    mulAdd(VecSse2 a, VecSse2 b, VecSse2 acc)
    {
        return {_mm_add_ps(_mm_mul_ps(a.v, b.v), acc.v)};
    }

    static VecSse2
    max(VecSse2 a, VecSse2 b)
    {
        // MAXPS(b, a) returns a on NaN and on ties (incl. -0 vs +0):
        // bit-exactly the scalar `(a < b) ? b : a`.
        return {_mm_max_ps(b.v, a.v)};
    }

    static void
    deinterleave2(const float* p, VecSse2& even, VecSse2& odd)
    {
        const __m128 lo = _mm_loadu_ps(p);     // p0 p1 p2 p3
        const __m128 hi = _mm_loadu_ps(p + 4); // p4 p5 p6 p7
        even.v = _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
        odd.v = _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1));
    }
};

#if defined(__AVX2__)

struct VecAvx2
{
    static constexpr int width = 8;
    static constexpr bool fastPartial = true; // maskload/maskstore
    __m256 v;

    static VecAvx2
    zero()
    {
        return {_mm256_setzero_ps()};
    }

    static VecAvx2
    broadcast(float x)
    {
        return {_mm256_set1_ps(x)};
    }

    static VecAvx2
    loadu(const float* p)
    {
        return {_mm256_loadu_ps(p)};
    }

    static VecAvx2
    loadPartial(const float* p, int n)
    {
        return {_mm256_maskload_ps(p, tailMask(n))};
    }

    static VecAvx2
    gatherStride(const float* p, std::int64_t stride)
    {
        return {_mm256_setr_ps(p[0], p[stride], p[2 * stride],
                               p[3 * stride], p[4 * stride],
                               p[5 * stride], p[6 * stride],
                               p[7 * stride])};
    }

    void
    storeu(float* p) const
    {
        _mm256_storeu_ps(p, v);
    }

    void
    storePartial(float* p, int n) const
    {
        _mm256_maskstore_ps(p, tailMask(n), v);
    }

    static VecAvx2
    mulAdd(VecAvx2 a, VecAvx2 b, VecAvx2 acc)
    {
        return {_mm256_add_ps(_mm256_mul_ps(a.v, b.v), acc.v)};
    }

    static VecAvx2
    max(VecAvx2 a, VecAvx2 b)
    {
        // MAXPS(b, a) returns a on NaN and on ties (incl. -0 vs +0):
        // bit-exactly the scalar `(a < b) ? b : a`.
        return {_mm256_max_ps(b.v, a.v)};
    }

    static void
    deinterleave2(const float* p, VecAvx2& even, VecAvx2& odd)
    {
        const __m256 lo = _mm256_loadu_ps(p);     // p0..p7
        const __m256 hi = _mm256_loadu_ps(p + 8); // p8..p15
        // Per-128-lane shuffle leaves 64-bit quads out of order;
        // permute4x64(0xD8) = (0,2,1,3) restores ascending lanes.
        __m256 ev = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
        __m256 od = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1));
        even.v = _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(ev), 0xD8));
        odd.v = _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(od), 0xD8));
    }

  private:
    static __m256i
    tailMask(int n)
    {
        // masks[8 - n] starts n all-ones lanes followed by zeros.
        alignas(32) static constexpr std::int32_t masks[16]
            = {-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(masks + (8 - n)));
    }
};

#endif // __AVX2__

} // namespace bt::simd

#endif // x86

#endif // BT_COMMON_SIMD_X86_HPP
