/**
 * @file
 * Portable SIMD core: ISA identification/detection, alignment helpers,
 * and a generic fixed-width vector type the kernel bodies are written
 * against.
 *
 * The kernel layer (src/kernels/simd_body.hpp) templates its hot loops
 * over a vector type V exposing the interface below; per-ISA
 * specializations (simd_x86.hpp, simd_neon.hpp) implement the same
 * interface with intrinsics. VecGeneric<W> here is the
 * specification-by-construction: plain lane loops the compiler may or
 * may not vectorize, used for testing and as the model every intrinsic
 * implementation must match lane-for-lane.
 *
 * Bit-identity contract (see docs/DISPATCH.md): every operation is
 * defined lane-wise with exactly the scalar semantics —
 *  - mulAdd(a, b, acc) is an UNFUSED multiply then add (two roundings,
 *    like the scalar `acc += a * b`); no implementation may emit FMA.
 *  - max(a, b) is `(a < b) ? b : a` per lane, matching std::max
 *    including its NaN and signed-zero behavior (x86 maxps returns its
 *    second operand on NaN and on ties, so MAXPS(b, a) matches).
 * Vectorization across *independent output elements* plus these rules
 * keeps every SIMD tier bit-identical to the scalar bodies.
 */

#ifndef BT_COMMON_SIMD_HPP
#define BT_COMMON_SIMD_HPP

#include <cstdint>

namespace bt::simd {

/** Instruction-set tiers the kernel layer can dispatch to. */
enum class Isa : std::uint8_t {
    Scalar = 0, ///< reference scalar bodies (always available)
    Sse2,       ///< x86-64 baseline, 4 float lanes
    Avx2,       ///< 8 float lanes (TU compiled with -mavx2, never -mfma)
    Neon,       ///< aarch64 baseline, 4 float lanes
};

const char* isaName(Isa isa);

constexpr int
isaLanes(Isa isa)
{
    switch (isa) {
    case Isa::Sse2:
    case Isa::Neon:
        return 4;
    case Isa::Avx2:
        return 8;
    case Isa::Scalar:
        break;
    }
    return 1;
}

/** True when the running CPU can execute @p isa (Scalar: always). */
bool cpuSupports(Isa isa);

/** Widest ISA the running CPU supports. */
Isa bestCpuIsa();

/** Next tier down the fall-back chain (Avx2 -> Sse2 -> Scalar). */
constexpr Isa
fallbackIsa(Isa isa)
{
    return isa == Isa::Avx2 ? Isa::Sse2 : Isa::Scalar;
}

/** Parsed BT_SIMD environment override. */
struct SimdRequest
{
    Isa isa = Isa::Scalar; ///< requested tier (when forced)
    bool forced = false;   ///< BT_SIMD was set to a specific tier
};

/**
 * Parse BT_SIMD: scalar|sse2|avx2|neon force that tier (clamped down
 * the fallback chain if unsupported, with a warning); native or unset
 * mean "detect". Any other value is a fatal configuration error.
 */
SimdRequest simdRequestFromEnv();

/**
 * Reference vector: W float lanes as a plain array, every op a lane
 * loop. The semantic model for the intrinsic implementations and the
 * fallback when no ISA header matches.
 */
template <int W>
struct VecGeneric
{
    static constexpr int width = W;
    /**
     * Whether loadPartial/storePartial are register ops (masked moves)
     * rather than bounce-through-a-stack-buffer emulation. Kernel tail
     * loops should prefer a plain scalar remainder when this is false:
     * the temp-buffer route costs a store-to-load-forwarding stall per
     * call, which dominates short rows (measured ~4x on SSE2 conv2d).
     */
    static constexpr bool fastPartial = false;
    float lane[W];

    static VecGeneric
    zero()
    {
        VecGeneric v{};
        return v;
    }

    static VecGeneric
    broadcast(float x)
    {
        VecGeneric v;
        for (int i = 0; i < W; ++i)
            v.lane[i] = x;
        return v;
    }

    static VecGeneric
    loadu(const float* p)
    {
        VecGeneric v;
        for (int i = 0; i < W; ++i)
            v.lane[i] = p[i];
        return v;
    }

    /** First n lanes from p, remaining lanes zero (0 <= n <= W). */
    static VecGeneric
    loadPartial(const float* p, int n)
    {
        VecGeneric v{};
        for (int i = 0; i < n; ++i)
            v.lane[i] = p[i];
        return v;
    }

    /** One lane every @p stride floats. */
    static VecGeneric
    gatherStride(const float* p, std::int64_t stride)
    {
        VecGeneric v;
        for (int i = 0; i < W; ++i)
            v.lane[i] = p[static_cast<std::int64_t>(i) * stride];
        return v;
    }

    void
    storeu(float* p) const
    {
        for (int i = 0; i < W; ++i)
            p[i] = lane[i];
    }

    /** Store the first n lanes only; p[n..] is not touched. */
    void
    storePartial(float* p, int n) const
    {
        for (int i = 0; i < n; ++i)
            p[i] = lane[i];
    }

    /** Unfused a*b + acc: one multiply rounding, one add rounding. */
    static VecGeneric
    mulAdd(VecGeneric a, VecGeneric b, VecGeneric acc)
    {
        VecGeneric v;
        for (int i = 0; i < W; ++i) {
            const float prod = a.lane[i] * b.lane[i];
            v.lane[i] = prod + acc.lane[i];
        }
        return v;
    }

    /** Lane-wise (a < b) ? b : a — exactly std::max's semantics. */
    static VecGeneric
    max(VecGeneric a, VecGeneric b)
    {
        VecGeneric v;
        for (int i = 0; i < W; ++i)
            v.lane[i] = a.lane[i] < b.lane[i] ? b.lane[i] : a.lane[i];
        return v;
    }

    /** Split p[0..2W) into even lanes and odd lanes. */
    static void
    deinterleave2(const float* p, VecGeneric& even, VecGeneric& odd)
    {
        for (int i = 0; i < W; ++i) {
            even.lane[i] = p[2 * i];
            odd.lane[i] = p[2 * i + 1];
        }
    }
};

} // namespace bt::simd

#endif // BT_COMMON_SIMD_HPP
