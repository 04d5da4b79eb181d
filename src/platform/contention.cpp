#include "platform/contention.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "platform/perf_model.hpp"

namespace bt::platform {

std::int64_t
ContentionProfile::aggregateDemandMilli(
    std::span<const int> stage_to_pu) const
{
    BT_ASSERT(static_cast<int>(stage_to_pu.size()) == numStages);
    // A PU's draw is its hungriest assigned stage (stages on one PU run
    // back-to-back, never concurrently), so the aggregate is a sum of
    // per-PU maxima.
    std::int64_t total = 0;
    std::vector<std::int64_t> per_pu(static_cast<std::size_t>(numPus),
                                     0);
    for (int s = 0; s < numStages; ++s) {
        const int pu = stage_to_pu[static_cast<std::size_t>(s)];
        BT_ASSERT(pu >= 0 && pu < numPus);
        auto& best = per_pu[static_cast<std::size_t>(pu)];
        best = std::max(best, demandMilli(s, pu));
    }
    for (const std::int64_t d : per_pu)
        total += d;
    return total;
}

std::int64_t
ContentionProfile::worstStageDemandMilli(int pu) const
{
    std::int64_t d = 0;
    for (int s = 0; s < numStages; ++s)
        d = std::max(d, demandMilli(s, pu));
    return d;
}

int
ContentionProfile::frugalestPu(std::span<const int> pus) const
{
    BT_ASSERT(!pus.empty());
    return *std::min_element(pus.begin(), pus.end(), [this](int a, int b) {
        return worstStageDemandMilli(a) < worstStageDemandMilli(b);
    });
}

double
ContentionModel::computeSeconds(const WorkProfile& w, const PuModel& p,
                                double freq_ghz) const
{
    const double eff = p.eff[static_cast<std::size_t>(w.pattern)];
    const double single_core_ops = freq_ghz * 1e9 * p.opsPerCycle * eff;
    const double flops = p.kind == PuKind::Cpu
        ? w.flops * w.cpuWorkScale
        : w.flops;
    const double t1 = flops / single_core_ops;
    // Amdahl: serial fraction stays on one core/CU.
    const double pf = std::clamp(w.parallelFraction, 0.0, 1.0);
    return t1 * ((1.0 - pf) + pf / p.cores);
}

double
ContentionModel::memIntensity(const WorkProfile& w,
                              const PuModel& p) const
{
    const double comp = computeSeconds(w, p, p.freqGhz);
    const double mem = (w.bytes * desc.mem.llcFactorIsolated)
        / (p.memBwGbps * 1e9);
    const double denom = std::max(comp, mem);
    if (denom <= 0.0)
        return 0.0;
    return mem / denom;
}

std::int64_t
ContentionModel::milliGbps(double gbps)
{
    return std::llround(gbps * 1000.0);
}

int
ContentionModel::bucketOf(double ambient_gbps) const
{
    if (ambient_gbps <= 0.0)
        return 0;
    const double step = rooflineGbps() / (kBuckets - 1);
    const int b = static_cast<int>(std::ceil(ambient_gbps / step));
    return std::min(kBuckets - 1, std::max(1, b));
}

double
ContentionModel::bucketCeilingGbps(int bucket) const
{
    BT_ASSERT(bucket >= 0 && bucket < kBuckets);
    return bucket * (rooflineGbps() / (kBuckets - 1));
}

ContentionProfile
ContentionModel::profileStages(const PerfModel& model,
                               std::span<const WorkProfile> works) const
{
    BT_ASSERT(&model.soc() == &desc,
              "contention profile needs the model of the same SoC");
    ContentionProfile cp;
    cp.numStages = static_cast<int>(works.size());
    cp.numPus = desc.numPus();
    cp.numBuckets = kBuckets;

    const std::size_t cells = static_cast<std::size_t>(cp.numStages)
        * static_cast<std::size_t>(cp.numPus);
    cp.demandGbps_.assign(cells, 0.0);
    cp.demandMilli_.assign(cells, 0);
    cp.stretch_.assign(cells * static_cast<std::size_t>(cp.numBuckets),
                       1.0);

    for (int s = 0; s < cp.numStages; ++s) {
        const WorkProfile& w = works[static_cast<std::size_t>(s)];
        for (int p = 0; p < cp.numPus; ++p) {
            const std::size_t cell = cp.cellIndex(s, p);
            const double d = demandGbps(w, desc.pu(p));
            cp.demandGbps_[cell] = d;
            cp.demandMilli_[cell] = milliGbps(d);

            // Slowdown stretch per ambient bucket, relative to the
            // interference-heavy baseline the profiling tables are
            // measured under. Bucket 0 stays exactly 1.0 so the
            // uncontended path is bit-identical.
            const double base = model.interferenceHeavyTime(w, p);
            for (int b = 1; b < cp.numBuckets; ++b) {
                const double ambient = bucketCeilingGbps(b);
                cp.stretch_[cell
                                * static_cast<std::size_t>(cp.numBuckets)
                            + static_cast<std::size_t>(b)]
                    = model.interferenceHeavyTime(w, p, ambient) / base;
            }
        }
    }
    return cp;
}

} // namespace bt::platform
