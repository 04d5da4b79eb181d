/**
 * @file
 * Processing-unit and workload descriptors shared by the performance
 * model, the profiler and the optimizer.
 *
 * A PuModel is one *scheduling class* of the SoC - e.g. "the two
 * Cortex-X1 big cores" or "the Mali-G710 GPU" - matching the paper's
 * profiling-table columns. A WorkProfile is the analytic cost descriptor
 * of one pipeline stage (flops, DRAM traffic, parallelizability,
 * computational pattern); it drives simulated timing while the kernels
 * themselves execute functionally.
 */

#ifndef BT_PLATFORM_PU_HPP
#define BT_PLATFORM_PU_HPP

#include <array>
#include <cstdint>
#include <string>

#include "sched/affinity.hpp"

namespace bt::platform {

/** Broad kind of a processing unit. */
enum class PuKind { Cpu, Gpu };

/**
 * Computational pattern of a stage, the axis along which PUs differ most
 * (paper Sec. 2.1): GPUs excel at Dense, collapse on Irregular; big CPU
 * cores are the opposite.
 */
enum class Pattern : int { Dense = 0, Sparse = 1, Irregular = 2,
                           Mixed = 3 };

constexpr int kNumPatterns = 4;

/** Human-readable pattern name. */
const char* patternName(Pattern p);

/** Analytic cost descriptor of one pipeline stage. */
struct WorkProfile
{
    double flops = 0.0;            ///< arithmetic operations per task
    double bytes = 0.0;            ///< DRAM traffic per task
    double parallelFraction = 1.0; ///< Amdahl parallel fraction in [0,1]
    Pattern pattern = Pattern::Dense;

    /**
     * Implementation-inefficiency multiplier applied to flops when the
     * stage runs on a CPU class: some host kernels (the paper's direct
     * convolution loops, Fig. 3) execute several times more dynamic
     * work than the flop count suggests, while their GPU twins map to
     * near-roofline code. 1.0 = the host kernel is as lean as the
     * device kernel.
     */
    double cpuWorkScale = 1.0;

    /** Merge two profiles executed back to back (chunk fusion). */
    WorkProfile fusedWith(const WorkProfile& next) const;
    bool operator==(const WorkProfile&) const = default;
};

/**
 * One scheduling class of the SoC. `eff[pattern]` is the fraction of peak
 * throughput this PU achieves on that pattern - the main calibration
 * knob.
 */
struct PuModel
{
    std::string label;     ///< "little", "mid", "big", "gpu"
    std::string hardware;  ///< e.g. "2x Cortex-X1"
    PuKind kind = PuKind::Cpu;
    int cores = 1;         ///< CPU cores, or GPU compute units
    double freqGhz = 1.0;
    double opsPerCycle = 1.0;  ///< peak ops per core (or CU) per cycle
    std::array<double, kNumPatterns> eff{1.0, 1.0, 1.0, 1.0};
    double memBwGbps = 1.0;    ///< max DRAM draw of this PU alone
    double dispatchOverheadUs = 0.0; ///< per-kernel launch cost

    /**
     * Multiplicative clock factor applied as the *other* PUs become busy:
     * > 1 models firmware boost (paper observed Mali/Adreno GPUs and the
     * OnePlus A510 cluster speeding up under CPU load, Sec. 5.3); < 1
     * models thermal/power throttling (Jetson low-power mode).
     */
    double busyFreqFactor = 1.0;

    /**
     * Power draw of the whole class running flat out at base clock
     * (watts). Under a governor boost/throttle the active power scales
     * with the square of the clock factor (voltage tracks frequency).
     */
    double activePowerW = 1.0;

    /** Power draw of the class when idle but powered (watts). */
    double idlePowerW = 0.1;

    sched::CpuSet coreIds; ///< host core IDs (empty for GPUs)

    /** Peak GFLOP/s of the whole class at base clock. */
    double peakGflops() const
    {
        return cores * freqGhz * opsPerCycle;
    }
};

} // namespace bt::platform

#endif // BT_PLATFORM_PU_HPP
