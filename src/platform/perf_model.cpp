#include "platform/perf_model.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.hpp"

namespace bt::platform {

PerfModel::PerfModel(const SocDescription& soc_)
    : desc(soc_), contention_(soc_)
{
    desc.validate();
    BT_ASSERT(desc.numPus() <= kMaxPus, "the interference fold keeps PU "
              "classes in a 64-bit mask; ", desc.numPus(), " is too many");
}

double
PerfModel::computeTime(const WorkProfile& w, int pu, int busy_others,
                       std::span<const double> clock_scale) const
{
    double freq = effectiveFreqGhz(pu, busy_others);
    if (!clock_scale.empty())
        freq *= clock_scale[static_cast<std::size_t>(pu)];
    return contention_.computeSeconds(w, desc.pu(pu), freq);
}

LoadCell
PerfModel::cellOf(const WorkProfile& w, int pu) const
{
    return {Load{&w, pu}, contention_.demandGbps(w, desc.pu(pu)),
            computeTime(w, pu, 0, {}), computeTime(w, pu, 1, {})};
}

double
PerfModel::effectiveFreqGhz(int pu, int busy_others) const
{
    const PuModel& p = desc.pu(pu);
    // Firmware governors react in steps: any concurrent load on another
    // PU class trips the boost/throttle state (consistent with the
    // paper's observation that the effect appears as soon as the system
    // is loaded, Sec. 5.3).
    const double factor = busy_others > 0 ? p.busyFreqFactor : 1.0;
    return p.freqGhz * factor;
}

double
PerfModel::activePowerW(int pu, int busy_others) const
{
    const PuModel& p = desc.pu(pu);
    const double factor = effectiveFreqGhz(pu, busy_others) / p.freqGhz;
    return p.activePowerW * factor * factor;
}

double
PerfModel::systemPowerW(std::uint64_t pu_active) const
{
    BT_ASSERT(std::bit_width(pu_active)
                  <= static_cast<unsigned>(desc.numPus()),
              "active mask names a PU class the SoC lacks");
    const int busy = std::popcount(pu_active);
    double total = desc.basePowerW;
    for (int p = 0; p < desc.numPus(); ++p) {
        if ((pu_active >> p) & 1U)
            total += activePowerW(p, busy - 1);
        else
            total += desc.pu(p).idlePowerW;
    }
    return total;
}

double
PerfModel::stageTime(const WorkProfile& w, int pu, double comp,
                     int busy_others, int same_pu, double demand_total,
                     double ambient_gbps) const
{
    const PuModel& p = desc.pu(pu);
    const bool contended = busy_others > 0 || ambient_gbps > 0.0;

    // Memory side: demand-proportional DRAM sharing (ContentionModel).
    // Cross-tenant ambient traffic joins the pool like any foreign
    // PU's demand (adding 0.0 keeps the fold bit-identical).
    const double llc = contention_.llcFactor(contended);
    demand_total += contention_.weightedDemand(ambient_gbps, false);
    const double scale = contention_.bandwidthScale(demand_total);
    const double bw = p.memBwGbps * scale;
    double mem = (w.bytes * llc) / (bw * 1e9);

    // Loads time-sharing one PU stretch both components.
    comp *= same_pu;
    mem *= same_pu;

    return std::max(comp, mem) + p.dispatchOverheadUs * 1e-6;
}

void
PerfModel::timesOf(std::span<const LoadCell> active,
                   std::span<const double> clock_scale,
                   double ambient_gbps, std::span<double> times_out) const
{
    BT_ASSERT(times_out.size() == active.size(),
              "one output slot per load");
    BT_ASSERT(ambient_gbps >= 0.0, "ambient demand must be nonnegative");
    BT_ASSERT(clock_scale.empty()
              || clock_scale.size()
                  == static_cast<std::size_t>(desc.numPus()));

    // Which PU classes are busy (one bit each) and how many loads
    // timeslice each. Everything a load's fold reads depends on the
    // load only through its PU class, so fold once per busy class.
    std::uint64_t busy = 0;
    std::array<int, kMaxPus> on_pu{};
    for (const LoadCell& c : active) {
        BT_ASSERT(c.load.work != nullptr);
        busy |= std::uint64_t{1} << c.load.pu;
        on_pu[static_cast<std::size_t>(c.load.pu)] += 1;
    }
    std::array<double, kMaxPus> demand_total{};
    for (std::uint64_t left = busy; left != 0; left &= left - 1) {
        const int pu = std::countr_zero(left);
        // Other PUs' traffic is partially absorbed by bank-level
        // parallelism; our own class's demand counts in full.
        double total = 0.0;
        for (const LoadCell& c : active)
            total += contention_.weightedDemand(c.demandGbps,
                                                c.load.pu == pu);
        demand_total[static_cast<std::size_t>(pu)] = total;
    }
    for (std::size_t i = 0; i < active.size(); ++i) {
        const LoadCell& c = active[i];
        const Load& self = c.load;
        const auto pu = static_cast<std::size_t>(self.pu);
        const int busy_others
            = std::popcount(busy & ~(std::uint64_t{1} << self.pu));
        // x * 1.0 == x, so an unthrottled clock reads the cell exactly.
        const double comp
            = clock_scale.empty() || clock_scale[pu] == 1.0
            ? (busy_others > 0 ? c.computeBusy : c.computeIdle)
            : computeTime(*self.work, self.pu, busy_others, clock_scale);
        times_out[i] = stageTime(*self.work, self.pu, comp, busy_others,
                                 on_pu[pu], demand_total[pu],
                                 ambient_gbps);
    }
}

double
PerfModel::isolatedTime(const WorkProfile& w, int pu) const
{
    // The single load busies no other class and is alone on its own.
    return stageTime(w, pu, computeTime(w, pu, 0, {}), 0, 1,
                     contention_.demandGbps(w, desc.pu(pu)), 0.0);
}

double
PerfModel::interferenceHeavyTime(const WorkProfile& w, int pu,
                                 double ambient_gbps) const
{
    // The profiler's interference-heavy mode: every PU class runs one
    // load of the same computation while we measure `pu` (paper
    // Sec. 3.2), so every other class is busy, `pu` holds one load, and
    // the demand sums over the classes in PU order, as timesOf would.
    BT_ASSERT(ambient_gbps >= 0.0, "ambient demand must be nonnegative");
    double demand_total = 0.0;
    for (int q = 0; q < desc.numPus(); ++q)
        demand_total += contention_.weightedDemand(
            contention_.demandGbps(w, desc.pu(q)), q == pu);
    const int busy_others = desc.numPus() - 1;
    return stageTime(w, pu, computeTime(w, pu, busy_others, {}),
                     busy_others, 1, demand_total, ambient_gbps);
}

} // namespace bt::platform
