/**
 * @file
 * Runtime SIMD dispatch for the host kernel bodies.
 *
 * Each ISA tier is a translation unit compiling the shared templated
 * bodies (simd_body.hpp) against one vector type and exporting a
 * function-pointer table. simdOps() returns the table for the active
 * tier, resolved once from CPU detection and the BT_SIMD environment
 * override (scalar|sse2|avx2|neon|native); nullptr means "run the
 * scalar bodies", which remain in the kernel .cpp files as the
 * fallback and the reference the tests compare against bit-for-bit.
 *
 * The instrumented path (bt::check) is untouched by this table: the
 * checker observes GpuExec launches, whose per-element bodies are the
 * scalar dual instantiation — SIMD dispatch only applies to CpuExec
 * host kernels, so checker coverage is independent of the tier.
 */

#ifndef BT_KERNELS_SIMD_OPS_HPP
#define BT_KERNELS_SIMD_OPS_HPP

#include "common/simd.hpp"
#include "kernels/csr.hpp"
#include "kernels/exec.hpp"
#include "kernels/tensor.hpp"

namespace bt::kernels {

/** The SIMD tier host kernels currently dispatch to. */
struct SimdTier
{
    simd::Isa isa = simd::Isa::Scalar;
    int lanes = 1;
    /** True when BT_SIMD pinned the tier (vs runtime detection). */
    bool forced = false;
};

/** Active tier (stamped into benchmark context, shown by tooling). */
SimdTier simdTier();

/** True when @p isa can run here (CPU support + tier compiled in). */
bool simdTierAvailable(simd::Isa isa);

/**
 * Pin the dispatch tier for in-process comparisons (bit-identity tests,
 * tier benchmarks). Requires simdTierAvailable(isa); not thread-safe —
 * call only while no kernel is executing.
 */
void setSimdIsaForTesting(simd::Isa isa);

/** Restore the tier chosen by BT_SIMD / CPU detection. */
void resetSimdIsaForTesting();

namespace detail {

/** Per-tier kernel entry points over raw pointers. */
struct SimdOps
{
    simd::Isa isa = simd::Isa::Scalar;
    void (*conv2d)(const CpuExec&, const ConvShape&, const float* in,
                   const float* weights, const float* bias,
                   float* out) = nullptr;
    void (*sparseConv)(const CpuExec&, const ConvShape&, const float* in,
                       const CsrMatrix& weights, const float* bias,
                       float* out) = nullptr;
    void (*maxpool)(const CpuExec&, const Shape3& in_shape,
                    const float* in, float* out) = nullptr;
    void (*linear)(const CpuExec&, int in_features, int out_features,
                   const float* in, const float* weights,
                   const float* bias, float* out) = nullptr;
};

/** Ops for the active tier; nullptr selects the scalar bodies. */
const SimdOps* simdOps();

/** Per-tier tables; nullptr when not compiled for this target. */
const SimdOps* sse2Ops();
const SimdOps* avx2Ops();
const SimdOps* neonOps();

} // namespace detail

} // namespace bt::kernels

#endif // BT_KERNELS_SIMD_OPS_HPP
