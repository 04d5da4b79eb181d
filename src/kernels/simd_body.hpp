/**
 * @file
 * Vectorized host kernel bodies, templated over a Vec implementation
 * (common/simd.hpp). Included only by the per-ISA tier TUs
 * (simd_tier_*.cpp); everything here is an implementation detail of
 * the SimdOps dispatch table.
 *
 * Bit-identity discipline (tested exhaustively in tests/test_simd.cpp):
 * every kernel vectorizes across *independent output elements* — W
 * adjacent pixels of a row saxpy, W output rows of a linear layer —
 * so each output element accumulates exactly the scalar body's terms
 * in exactly the scalar order. Combined with Vec's unfused mulAdd and
 * std::max-semantics max (see simd.hpp), outputs are bit-identical to
 * the scalar fallback at any tier, thread count, and shape.
 */

#ifndef BT_KERNELS_SIMD_BODY_HPP
#define BT_KERNELS_SIMD_BODY_HPP

#include <algorithm>
#include <cstdint>

#include "kernels/simd_ops.hpp"

namespace bt::kernels::detail {

// ---------------------------------------------------------------- rows
//
// Tails: masked partials when the ISA has them in registers
// (V::fastPartial), otherwise a plain scalar remainder — the emulated
// partials bounce through a stack buffer and eat a store-forwarding
// stall per call, which dominates short rows. Both tails compute the
// identical per-element expression, so outputs match bit-for-bit.

template <typename V>
inline void
fillRow(float* dst, float value, std::int64_t n)
{
    const V b = V::broadcast(value);
    std::int64_t i = 0;
    for (; i + V::width <= n; i += V::width)
        b.storeu(dst + i);
    if constexpr (V::fastPartial) {
        if (i < n)
            b.storePartial(dst + i, static_cast<int>(n - i));
    } else {
        for (; i < n; ++i)
            dst[i] = value;
    }
}

/** dst[i] += w * src[i] — the shifted-tap inner loop of both convs. */
template <typename V>
inline void
saxpyRow(float* dst, const float* src, float w, std::int64_t n)
{
    const V vw = V::broadcast(w);
    std::int64_t i = 0;
    // Two accumulator streams per iteration: a row is a chain of
    // independent loads/stores, and the extra stream keeps the FP add
    // port busy while the first iteration's store retires.
    for (; i + 2 * V::width <= n; i += 2 * V::width) {
        V::mulAdd(vw, V::loadu(src + i), V::loadu(dst + i))
            .storeu(dst + i);
        V::mulAdd(vw, V::loadu(src + i + V::width),
                  V::loadu(dst + i + V::width))
            .storeu(dst + i + V::width);
    }
    for (; i + V::width <= n; i += V::width) {
        V::mulAdd(vw, V::loadu(src + i), V::loadu(dst + i))
            .storeu(dst + i);
    }
    if constexpr (V::fastPartial) {
        if (i < n) {
            const int r = static_cast<int>(n - i);
            V::mulAdd(vw, V::loadPartial(src + i, r),
                      V::loadPartial(dst + i, r))
                .storePartial(dst + i, r);
        }
    } else {
        for (; i < n; ++i) {
            const float prod = w * src[i];
            dst[i] = prod + dst[i];
        }
    }
}

/** dst[i] = max(dst[i], 0) — the ReLU epilogue. */
template <typename V>
inline void
reluRow(float* dst, std::int64_t n)
{
    const V z = V::zero();
    std::int64_t i = 0;
    for (; i + V::width <= n; i += V::width)
        V::max(V::loadu(dst + i), z).storeu(dst + i);
    if constexpr (V::fastPartial) {
        if (i < n) {
            const int r = static_cast<int>(n - i);
            V::max(V::loadPartial(dst + i, r), z)
                .storePartial(dst + i, r);
        }
    } else {
        for (; i < n; ++i)
            dst[i] = dst[i] < 0.0f ? 0.0f : dst[i];
    }
}

// ---------------------------------------------------------------- conv

template <typename V>
void
conv2dCpuV(const CpuExec& exec, const ConvShape& shape, const float* in,
           const float* weights, const float* bias, float* out)
{
    const int h = shape.in.h;
    const int w = shape.in.w;
    const std::int64_t plane = static_cast<std::int64_t>(h) * w;
    exec.forEachBlock(shape.outC, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t oc = lo; oc < hi; ++oc) {
            float* dst_plane = out + oc * plane;
            fillRow<V>(dst_plane, bias[oc], plane);
            const float* wrow = weights
                + oc * static_cast<std::int64_t>(shape.in.c) * 9;
            for (int ic = 0; ic < shape.in.c; ++ic, wrow += 9) {
                const float* src_plane = in + ic * plane;
                for (int ky = 0; ky < 3; ++ky) {
                    const int dy = ky - 1;
                    const int y0 = dy < 0 ? -dy : 0;
                    const int y1 = dy > 0 ? h - dy : h;
                    for (int kx = 0; kx < 3; ++kx) {
                        const int dx = kx - 1;
                        const int x0 = dx < 0 ? -dx : 0;
                        const int x1 = dx > 0 ? w - dx : w;
                        const float wv = wrow[ky * 3 + kx];
                        for (int y = y0; y < y1; ++y) {
                            const float* src = src_plane
                                + static_cast<std::int64_t>(y + dy) * w
                                + dx;
                            float* dst = dst_plane
                                + static_cast<std::int64_t>(y) * w;
                            saxpyRow<V>(dst + x0, src + x0, wv, x1 - x0);
                        }
                    }
                }
            }
            reluRow<V>(dst_plane, plane);
        }
    });
}

template <typename V>
void
sparseConvCpuV(const CpuExec& exec, const ConvShape& shape,
               const float* in, const CsrMatrix& weights,
               const float* bias, float* out)
{
    const int h = shape.in.h;
    const int w = shape.in.w;
    const std::int64_t plane = static_cast<std::int64_t>(h) * w;
    exec.forEachBlock(shape.outC, [&](std::int64_t lo_oc,
                                      std::int64_t hi_oc) {
        for (std::int64_t oc = lo_oc; oc < hi_oc; ++oc) {
            float* dst_plane = out + oc * plane;
            fillRow<V>(dst_plane, bias[oc], plane);
            const std::uint32_t lo
                = weights.rowPtr[static_cast<std::size_t>(oc)];
            const std::uint32_t hi
                = weights.rowPtr[static_cast<std::size_t>(oc) + 1];
            for (std::uint32_t k = lo; k < hi; ++k) {
                const std::uint32_t col = weights.colIdx[k];
                const int ic = static_cast<int>(col / 9);
                const int dy = static_cast<int>((col % 9) / 3) - 1;
                const int dx = static_cast<int>(col % 3) - 1;
                const float wv = weights.values[k];
                const float* src_plane = in + ic * plane;
                const int y0 = dy < 0 ? -dy : 0;
                const int y1 = dy > 0 ? h - dy : h;
                const int x0 = dx < 0 ? -dx : 0;
                const int x1 = dx > 0 ? w - dx : w;
                for (int y = y0; y < y1; ++y) {
                    const float* src = src_plane
                        + static_cast<std::int64_t>(y + dy) * w + dx;
                    float* dst = dst_plane
                        + static_cast<std::int64_t>(y) * w;
                    saxpyRow<V>(dst + x0, src + x0, wv, x1 - x0);
                }
            }
            reluRow<V>(dst_plane, plane);
        }
    });
}

// ------------------------------------------------------------- maxpool

template <typename V>
void
maxpoolCpuV(const CpuExec& exec, const Shape3& in_shape, const float* in,
            float* out)
{
    const int oh = in_shape.h / 2;
    const int ow = in_shape.w / 2;
    const std::int64_t rows = static_cast<std::int64_t>(in_shape.c) * oh;
    exec.forEachBlock(rows, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t r = lo; r < hi; ++r) {
            const std::int64_t c = r / oh;
            const std::int64_t y = r - c * oh;
            const float* row0 = in
                + (c * in_shape.h + 2 * y) * in_shape.w;
            const float* row1 = row0 + in_shape.w;
            float* dst = out + r * ow;
            int x = 0;
            for (; x + V::width <= ow; x += V::width) {
                V e0;
                V o0;
                V e1;
                V o1;
                V::deinterleave2(row0 + 2 * x, e0, o0);
                V::deinterleave2(row1 + 2 * x, e1, o1);
                V::max(V::max(e0, o0), V::max(e1, o1)).storeu(dst + x);
            }
            for (; x < ow; ++x) {
                const float a
                    = row0[2 * x] < row0[2 * x + 1] ? row0[2 * x + 1]
                                                    : row0[2 * x];
                const float b
                    = row1[2 * x] < row1[2 * x + 1] ? row1[2 * x + 1]
                                                    : row1[2 * x];
                dst[x] = a < b ? b : a;
            }
        }
    });
}

// -------------------------------------------------------------- linear

template <typename V>
void
linearCpuV(const CpuExec& exec, int in_features, int out_features,
           const float* in, const float* weights, const float* bias,
           float* out)
{
    exec.forEachBlock(out_features, [&](std::int64_t lo,
                                        std::int64_t hi) {
        std::int64_t row = lo;
        // W output rows at a time: acc lane r is exactly the scalar
        // dotRow for row+r (bias start, ascending i, unfused ops).
        for (; row + V::width <= hi; row += V::width) {
            V acc = V::loadu(bias + row);
            const float* wbase = weights + row * in_features;
            for (int i = 0; i < in_features; ++i) {
                acc = V::mulAdd(V::gatherStride(wbase + i, in_features),
                                V::broadcast(in[i]), acc);
            }
            acc.storeu(out + row);
        }
        for (; row < hi; ++row) {
            float acc = bias[row];
            const float* wrow = weights + row * in_features;
            for (int i = 0; i < in_features; ++i) {
                acc += wrow[i] * in[i];
            }
            out[row] = acc;
        }
    });
}

// ------------------------------------------------------------ factory

template <typename V>
SimdOps
makeSimdOps(simd::Isa isa)
{
    SimdOps ops;
    ops.isa = isa;
    ops.conv2d = &conv2dCpuV<V>;
    ops.sparseConv = &sparseConvCpuV<V>;
    ops.maxpool = &maxpoolCpuV<V>;
    ops.linear = &linearCpuV<V>;
    return ops;
}

} // namespace bt::kernels::detail

#endif // BT_KERNELS_SIMD_BODY_HPP
