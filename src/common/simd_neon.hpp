/**
 * @file
 * NEON implementation of the Vec interface (see simd.hpp for the
 * lane-wise semantic contract). Guarded on __ARM_NEON; aarch64 makes
 * it the baseline, so the NEON tier TU needs no extra flags.
 *
 * mulAdd deliberately uses vmulq+vaddq (two roundings) instead of
 * vfmaq (fused) to keep the scalar bit-identity contract.
 */

#ifndef BT_COMMON_SIMD_NEON_HPP
#define BT_COMMON_SIMD_NEON_HPP

#if defined(__ARM_NEON)

#include <arm_neon.h>

#include <cstdint>

#include "common/simd.hpp"

namespace bt::simd {

struct VecNeon
{
    static constexpr int width = 4;
    // Partials bounce through a stack buffer; tails should go scalar.
    static constexpr bool fastPartial = false;
    float32x4_t v;

    static VecNeon
    zero()
    {
        return {vdupq_n_f32(0.0f)};
    }

    static VecNeon
    broadcast(float x)
    {
        return {vdupq_n_f32(x)};
    }

    static VecNeon
    loadu(const float* p)
    {
        return {vld1q_f32(p)};
    }

    static VecNeon
    loadPartial(const float* p, int n)
    {
        alignas(16) float tmp[4] = {};
        for (int i = 0; i < n; ++i)
            tmp[i] = p[i];
        return {vld1q_f32(tmp)};
    }

    static VecNeon
    gatherStride(const float* p, std::int64_t stride)
    {
        alignas(16) const float tmp[4]
            = {p[0], p[stride], p[2 * stride], p[3 * stride]};
        return {vld1q_f32(tmp)};
    }

    void
    storeu(float* p) const
    {
        vst1q_f32(p, v);
    }

    void
    storePartial(float* p, int n) const
    {
        alignas(16) float tmp[4];
        vst1q_f32(tmp, v);
        for (int i = 0; i < n; ++i)
            p[i] = tmp[i];
    }

    static VecNeon
    mulAdd(VecNeon a, VecNeon b, VecNeon acc)
    {
        return {vaddq_f32(vmulq_f32(a.v, b.v), acc.v)};
    }

    static VecNeon
    max(VecNeon a, VecNeon b)
    {
        // (a < b) ? b : a; vcltq is false on NaN, selecting a.
        return {vbslq_f32(vcltq_f32(a.v, b.v), b.v, a.v)};
    }

    static void
    deinterleave2(const float* p, VecNeon& even, VecNeon& odd)
    {
        const float32x4x2_t both = vld2q_f32(p);
        even.v = both.val[0];
        odd.v = both.val[1];
    }
};

} // namespace bt::simd

#endif // __ARM_NEON

#endif // BT_COMMON_SIMD_NEON_HPP
