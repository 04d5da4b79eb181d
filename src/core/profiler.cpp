#include "core/profiler.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace bt::core {

namespace {

/**
 * Fixed per-measurement cost (timer setup, co-load launch, cool down)
 * added to the virtual campaign cost; with the default repetitions a
 * full table lands near the paper's ~6 minutes per device and
 * application.
 */
constexpr double kPerRepOverheadSeconds = 0.15;

} // namespace

Profiler::Profiler(const platform::PerfModel& model_, ProfilerConfig cfg)
    : model(model_), config(cfg)
{
    BT_ASSERT(config.repetitions > 0);
}

double
Profiler::measureCell(const platform::WorkProfile& work, int stage_index,
                      int pu, bool interference_heavy, double& stddev_out,
                      double& cost_out) const
{
    const auto& soc = model.soc();
    const double base = interference_heavy
        ? model.interferenceHeavyTime(work, pu)
        : model.isolatedTime(work, pu);

    std::vector<double> reps(static_cast<std::size_t>(
        config.repetitions));
    double cost = 0.0;
    for (int r = 0; r < config.repetitions; ++r) {
        // Independent noise stream per (device, stage, pu, mode, rep).
        const std::uint64_t key = hashCombine(
            hashCombine(soc.seed, static_cast<std::uint64_t>(
                stage_index)),
            hashCombine(static_cast<std::uint64_t>(pu) * 2
                            + (interference_heavy ? 1 : 0),
                        static_cast<std::uint64_t>(r)));
        Rng rng(key);
        const double t = base * rng.nextLogNormalFactor(soc.noiseSigma);
        reps[static_cast<std::size_t>(r)] = t;
        // Interference-heavy reps keep all PUs busy for the duration;
        // every rep also pays the fixed setup cost.
        cost += (interference_heavy ? t * soc.numPus() : t)
            + kPerRepOverheadSeconds;
    }

    const Summary s = summarize(reps);
    stddev_out = s.stddev;
    cost_out += cost;
    return s.mean;
}

ProfileResult
Profiler::profile(const Application& app) const
{
    const auto& soc = model.soc();
    std::vector<std::string> stage_names;
    stage_names.reserve(static_cast<std::size_t>(app.numStages()));
    for (const auto& s : app.stages())
        stage_names.push_back(s.name());
    std::vector<std::string> pu_labels;
    pu_labels.reserve(static_cast<std::size_t>(soc.numPus()));
    for (const auto& p : soc.pus)
        pu_labels.push_back(p.label);

    ProfileResult result;
    result.isolated = ProfilingTable(stage_names, pu_labels);
    result.interference = ProfilingTable(stage_names, pu_labels);

    std::vector<platform::WorkProfile> works;
    works.reserve(static_cast<std::size_t>(app.numStages()));
    for (const auto& s : app.stages())
        works.push_back(s.work());
    result.contention = model.contention().profileStages(model, works);

    double cost = 0.0;
    for (int s = 0; s < app.numStages(); ++s) {
        const auto& work = app.stage(s).work();
        for (int p = 0; p < soc.numPus(); ++p) {
            double sd = 0.0;
            const double iso
                = measureCell(work, s, p, false, sd, cost);
            result.isolated.set(s, p, iso);
            result.isolated.setStddev(s, p, sd);

            const double intf
                = measureCell(work, s, p, true, sd, cost);
            result.interference.set(s, p, intf);
            result.interference.setStddev(s, p, sd);
        }
    }
    result.profilingCostSeconds = cost;
    return result;
}

} // namespace bt::core
