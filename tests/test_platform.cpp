/**
 * @file
 * Unit tests for the platform models: device catalog sanity, roofline
 * behaviour of the performance model, and the interference mechanisms
 * (bandwidth contention, governor boost/throttle, LLC, timeslicing).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "platform/devices.hpp"
#include "platform/perf_model.hpp"

namespace bt::platform {
namespace {

WorkProfile
computeBound()
{
    return WorkProfile{1e9, 1e3, 1.0, Pattern::Dense};
}

WorkProfile
memoryBound()
{
    return WorkProfile{1e3, 1e9, 1.0, Pattern::Dense};
}

/** Every cell's time with all of @p cells co-running, no throttling
 *  and no ambient demand. */
std::vector<double>
coRunTimes(const PerfModel& model, const std::vector<LoadCell>& cells)
{
    std::vector<double> times(cells.size());
    model.timesOf(cells, {}, 0.0, times);
    return times;
}

/**
 * The model's equations (docs/PERFORMANCE_MODEL.md) for load @p i of
 * @p active, written out from the SocDescription fields and the
 * ContentionModel's per-load terms (demand, Amdahl compute time) alone.
 * It shares no code with PerfModel's fold, so a wrong term there - a
 * dropped LLC condition, a mis-weighted demand - shows up as a
 * mismatch here.
 */
double
referenceTime(const SocDescription& soc, std::size_t i,
              std::span<const Load> active, std::span<const double> clocks,
              double ambient)
{
    const ContentionModel contention(soc);
    const Load& self = active[i];
    const PuModel& p = soc.pu(self.pu);

    std::set<int> other_classes;
    int same_pu = 0;
    double demand = 0.0;
    for (const Load& l : active) {
        const double d = contention.demandGbps(*l.work, soc.pu(l.pu));
        if (l.pu == self.pu) {
            ++same_pu;
            demand += d;
        } else {
            other_classes.insert(l.pu);
            demand += d * soc.mem.contendedDemandWeight;
        }
    }
    demand += ambient * soc.mem.contendedDemandWeight;
    const bool others_busy = !other_classes.empty();

    double freq = p.freqGhz * (others_busy ? p.busyFreqFactor : 1.0);
    if (!clocks.empty())
        freq *= clocks[static_cast<std::size_t>(self.pu)];
    const double compute = contention.computeSeconds(*self.work, p, freq);

    const double llc = others_busy || ambient > 0.0
        ? soc.mem.llcFactorContended
        : soc.mem.llcFactorIsolated;
    const double share = demand > soc.mem.dramBwGbps
        ? soc.mem.dramBwGbps / demand
        : 1.0;
    const double mem
        = (self.work->bytes * llc) / (p.memBwGbps * share * 1e9);
    return std::max(compute * same_pu, mem * same_pu)
        + p.dispatchOverheadUs * 1e-6;
}

class PaperDevices : public ::testing::TestWithParam<int>
{
  protected:
    SocDescription soc = paperDevices()[static_cast<std::size_t>(
        GetParam())];
};

TEST_P(PaperDevices, ValidatesAndHasCpuAndGpu)
{
    soc.validate();
    EXPECT_GE(soc.numPus(), 2);
    EXPECT_GE(soc.gpuIndex(), 0);
    EXPECT_GE(soc.bigCpuIndex(), 0);
    EXPECT_NE(soc.gpuIndex(), soc.bigCpuIndex());
}

TEST_P(PaperDevices, GpuHasNoCoreIds)
{
    for (const auto& pu : soc.pus) {
        if (pu.kind == PuKind::Gpu)
            EXPECT_TRUE(pu.coreIds.empty());
        else
            EXPECT_EQ(pu.coreIds.size(),
                      static_cast<std::size_t>(pu.cores));
    }
}

TEST_P(PaperDevices, IsolatedTimesArePositiveAndFinite)
{
    const PerfModel model(soc);
    for (int p = 0; p < soc.numPus(); ++p) {
        for (const auto& w : {computeBound(), memoryBound()}) {
            const double t = model.isolatedTime(w, p);
            EXPECT_GT(t, 0.0);
            EXPECT_LT(t, 3600.0);
        }
    }
}

TEST_P(PaperDevices, InterferenceRatioMatchesBusyFactorDirection)
{
    // A PU whose governor boosts under load (busyFreqFactor > 1) must
    // show ratio < 1 on compute-bound work, and vice versa.
    const PerfModel model(soc);
    const auto w = computeBound();
    for (int p = 0; p < soc.numPus(); ++p) {
        const double iso = model.isolatedTime(w, p);
        const double heavy = model.interferenceHeavyTime(w, p);
        const double ratio = heavy / iso;
        const double busy = soc.pu(p).busyFreqFactor;
        if (busy > 1.0) {
            EXPECT_LT(ratio, 1.0) << soc.name << " pu " << p;
        } else if (busy < 1.0) {
            EXPECT_GT(ratio, 1.0) << soc.name << " pu " << p;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllDevices, PaperDevices,
                         ::testing::Range(0, 4));

TEST(DeviceCatalog, FourPaperDevicesWithDistinctNames)
{
    const auto devices = paperDevices();
    ASSERT_EQ(devices.size(), 4u);
    EXPECT_EQ(devices[0].name, "Google Pixel 7a");
    EXPECT_EQ(devices[1].name, "OnePlus 11");
    EXPECT_EQ(devices[2].name, "Jetson Orin Nano");
    EXPECT_EQ(devices[3].name, "Jetson Orin Nano (LP)");
}

TEST(DeviceCatalog, PuClassCountsMatchPaper)
{
    EXPECT_EQ(pixel7a().numPus(), 4);
    EXPECT_EQ(oneplus11().numPus(), 4);
    EXPECT_EQ(jetsonOrinNano().numPus(), 2);
    EXPECT_EQ(jetsonOrinNanoLp().numPus(), 2);
}

TEST(DeviceCatalog, NativeHostValid)
{
    const auto host = nativeHost();
    host.validate();
    EXPECT_GE(host.bigCpuIndex(), 0);
    EXPECT_GE(host.gpuIndex(), 0);
}

TEST(PerfModel, MoreWorkTakesLonger)
{
    const auto soc = pixel7a();
    const PerfModel model(soc);
    WorkProfile small = computeBound();
    WorkProfile large = small;
    large.flops *= 10;
    for (int p = 0; p < soc.numPus(); ++p)
        EXPECT_GT(model.isolatedTime(large, p),
                  model.isolatedTime(small, p));
}

TEST(PerfModel, SerialFractionLimitsSpeedup)
{
    const auto soc = pixel7a();
    const PerfModel model(soc);
    WorkProfile parallel = computeBound();
    WorkProfile serial = parallel;
    serial.parallelFraction = 0.0;
    const int little = soc.findPu("little"); // 4 cores
    ASSERT_GE(little, 0);
    const double tp = model.isolatedTime(parallel, little);
    const double ts = model.isolatedTime(serial, little);
    EXPECT_NEAR(ts / tp, 4.0, 0.2); // 4 cores, negligible memory time
}

TEST(PerfModel, GpuCollapsesOnIrregularWork)
{
    const auto soc = pixel7a();
    const PerfModel model(soc);
    WorkProfile dense = computeBound();
    WorkProfile irregular = dense;
    irregular.pattern = Pattern::Irregular;
    const int gpu = soc.gpuIndex();
    // Mali: dense efficiency orders of magnitude above irregular.
    EXPECT_GT(model.isolatedTime(irregular, gpu)
                  / model.isolatedTime(dense, gpu),
              20.0);
}

TEST(PerfModel, BandwidthContentionSlowsMemoryBoundWork)
{
    // On Jetson co-running memory-bound work on both PUs must stretch
    // memory-bound time (shared DRAM + LLC degradation).
    const auto soc = jetsonOrinNano();
    const PerfModel model(soc);
    const auto wp = memoryBound();
    const double together
        = coRunTimes(model, {model.cellOf(wp, 0), model.cellOf(wp, 1)})[0];
    const double alone = model.isolatedTime(wp, 0);
    EXPECT_GT(together, alone);
}

TEST(PerfModel, ComputeBoundWorkSeesOnlyGovernorUnderMemCoRunner)
{
    const auto soc = jetsonOrinNano();
    const PerfModel model(soc);
    const auto heavy = computeBound();
    const auto mem = memoryBound();
    // CPU compute-bound vs GPU memory-bound: the CPU slows only via
    // its governor (throttle), not via bandwidth.
    const double together = coRunTimes(
        model, {model.cellOf(heavy, 0), model.cellOf(mem, 1)})[0];
    const double alone = model.isolatedTime(heavy, 0);
    const double gov = soc.pu(0).busyFreqFactor;
    EXPECT_NEAR(together / alone, 1.0 / gov, 0.05);
}

TEST(PerfModel, TimeslicingSamePuStretchesBoth)
{
    const auto soc = pixel7a();
    const PerfModel model(soc);
    const auto w = computeBound();
    const double shared
        = coRunTimes(model, {model.cellOf(w, 2), model.cellOf(w, 2)})[0];
    const double alone = model.isolatedTime(w, 2);
    EXPECT_NEAR(shared / alone, 2.0, 0.01);
}

TEST(PerfModel, TimesOfIsBitIdenticalToTheReferenceFold)
{
    // The DES refreshes every active stage's rate with one timesOf
    // call over per-(stage, PU) cells; it must reproduce the model's
    // equations bit for bit on every device (8 PU classes on
    // manycoreRig), with and without cross-tenant ambient demand,
    // including active sets that timeslice one PU, under no
    // throttling, random clock factors, and factors of exactly 1.0
    // (which read the cell's precomputed compute time) mixed with 0.5
    // (which recompute it). The closed forms isolatedTime and
    // interferenceHeavyTime must match the same equations over their
    // active sets.
    std::vector<SocDescription> socs = paperDevices();
    socs.push_back(contentionRig());
    socs.push_back(manycoreRig());
    ASSERT_EQ(socs.back().numPus(), 8);

    Rng rng(0x7135);
    std::vector<WorkProfile> works(16);
    for (auto& w : works) {
        w.flops = rng.nextRange(1e5, 1e10);
        w.bytes = rng.nextRange(1e3, 1e9);
        w.parallelFraction = rng.nextDouble();
        w.pattern = static_cast<Pattern>(rng.nextBounded(kNumPatterns));
        w.cpuWorkScale = rng.nextRange(1.0, 4.0);
    }

    int compared = 0;
    for (const auto& soc : socs) {
        const PerfModel model(soc);
        const auto m = static_cast<std::uint64_t>(soc.numPus());
        for (int trial = 0; trial < 200; ++trial) {
            std::vector<Load> active(1 + rng.nextBounded(2 * m));
            for (auto& l : active)
                l = Load{&works[rng.nextBounded(works.size())],
                         static_cast<int>(rng.nextBounded(m))};
            std::vector<double> clocks;
            if (trial % 3 == 1)
                for (std::uint64_t p = 0; p < m; ++p)
                    clocks.push_back(rng.nextRange(0.3, 1.0));
            if (trial % 3 == 2)
                for (std::uint64_t p = 0; p < m; ++p)
                    clocks.push_back(rng.nextBounded(2) == 0 ? 1.0 : 0.5);
            const double ambient = trial % 4 >= 2
                ? rng.nextRange(0.1, 2.0 * soc.mem.dramBwGbps)
                : 0.0;

            std::vector<LoadCell> cells;
            for (const auto& l : active)
                cells.push_back(model.cellOf(*l.work, l.pu));
            std::vector<double> times(active.size());
            model.timesOf(cells, clocks, ambient, times);
            for (std::size_t i = 0; i < active.size(); ++i) {
                const double one
                    = referenceTime(soc, i, active, clocks, ambient);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(times[i]),
                          std::bit_cast<std::uint64_t>(one))
                    << soc.name << " trial " << trial << " load " << i
                    << ": " << times[i] << " vs " << one;
                ++compared;
            }
        }

        const double ambient = 0.5 * soc.mem.dramBwGbps;
        for (const auto& w : works) {
            std::vector<Load> all;
            for (int p = 0; p < soc.numPus(); ++p)
                all.push_back(Load{&w, p});
            for (int p = 0; p < soc.numPus(); ++p) {
                const Load alone{&w, p};
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              model.isolatedTime(w, p)),
                          std::bit_cast<std::uint64_t>(referenceTime(
                              soc, 0, {&alone, 1}, {}, 0.0)))
                    << soc.name << " pu " << p;
                const auto self = static_cast<std::size_t>(p);
                for (const double a : {0.0, ambient})
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                                  model.interferenceHeavyTime(w, p, a)),
                              std::bit_cast<std::uint64_t>(referenceTime(
                                  soc, self, all, {}, a)))
                        << soc.name << " pu " << p << " ambient " << a;
            }
        }
    }
    EXPECT_GT(compared, 1000);
}

TEST(PerfModel, EffectiveFreqStepsWithLoad)
{
    const auto soc = pixel7a();
    const PerfModel model(soc);
    const int gpu = soc.gpuIndex();
    const double f0 = model.effectiveFreqGhz(gpu, 0);
    const double f1 = model.effectiveFreqGhz(gpu, 1);
    const double f3 = model.effectiveFreqGhz(gpu, 3);
    // Mali boosts under load: a step as soon as any other PU is busy.
    EXPECT_LT(f0, f1);
    EXPECT_DOUBLE_EQ(f1, f3);
    EXPECT_NEAR(f3, soc.pu(gpu).freqGhz * soc.pu(gpu).busyFreqFactor,
                1e-12);
}

TEST(PerfModel, DispatchOverheadDominatesTinyKernels)
{
    const auto soc = pixel7a();
    const PerfModel model(soc);
    WorkProfile tiny{1.0, 1.0, 1.0, Pattern::Dense};
    const int gpu = soc.gpuIndex();
    EXPECT_NEAR(model.isolatedTime(tiny, gpu),
                soc.pu(gpu).dispatchOverheadUs * 1e-6, 1e-7);
}

TEST(WorkProfile, FusionAddsWorkAndBlendsAmdahl)
{
    WorkProfile a{100.0, 10.0, 1.0, Pattern::Dense};
    WorkProfile b{300.0, 30.0, 0.5, Pattern::Sparse};
    const WorkProfile f = a.fusedWith(b);
    EXPECT_DOUBLE_EQ(f.flops, 400.0);
    EXPECT_DOUBLE_EQ(f.bytes, 40.0);
    EXPECT_GT(f.parallelFraction, 0.5);
    EXPECT_LT(f.parallelFraction, 1.0);
    EXPECT_EQ(f.pattern, Pattern::Sparse); // b dominates by flops
}

TEST(Soc, FindPuAndLabels)
{
    const auto soc = pixel7a();
    EXPECT_EQ(soc.findPu("gpu"), 3);
    EXPECT_EQ(soc.findPu("big"), 2);
    EXPECT_EQ(soc.findPu("nope"), -1);
}

TEST(Soc, PatternNames)
{
    EXPECT_STREQ(patternName(Pattern::Dense), "dense");
    EXPECT_STREQ(patternName(Pattern::Sparse), "sparse");
    EXPECT_STREQ(patternName(Pattern::Irregular), "irregular");
    EXPECT_STREQ(patternName(Pattern::Mixed), "mixed");
}

} // namespace
} // namespace bt::platform
