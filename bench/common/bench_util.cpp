#include "bench/common/bench_util.hpp"

#include <cstdio>
#include <cstdlib>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace bt::bench {

core::Application
paperApp(int app_index)
{
    switch (app_index) {
      case 0:
        return apps::alexnetDense();
      case 1:
        return apps::alexnetSparse();
      case 2:
        return apps::octreeApp();
      default:
        fatal("unknown application index ", app_index);
    }
}

std::vector<platform::SocDescription>
devices()
{
    return platform::paperDevices();
}

std::uint64_t
benchNoiseSalt()
{
    const char* env = std::getenv("BT_NOISE_SALT");
    return env ? std::strtoull(env, nullptr, 0) : 0;
}

core::BetterTogetherReport
runFlow(const platform::SocDescription& soc,
        const core::Application& app)
{
    FrameworkConfig cfg;
    cfg.run.noiseSalt = benchNoiseSalt();
    const Framework bt(soc, cfg);
    return bt.run(app);
}

namespace {

/** Hash jitter in [0, 1) for cell (s, p), independent of everything. */
double
cellJitter(std::uint64_t salt, int s, int p)
{
    const std::uint64_t h = hashCombine(
        salt, hashCombine(static_cast<std::uint64_t>(s),
                          static_cast<std::uint64_t>(p)));
    return static_cast<double>(h % 4096) / 4096.0;
}

} // namespace

core::ProfilingTable
deepPipelineTable(const platform::SocDescription& soc, int num_stages)
{
    std::vector<std::string> stages;
    for (int s = 0; s < num_stages; ++s)
        stages.push_back("deep" + std::to_string(s));
    std::vector<std::string> pus;
    for (const auto& p : soc.pus)
        pus.push_back(p.label);

    core::ProfilingTable table(std::move(stages), std::move(pus));
    for (int s = 0; s < num_stages; ++s) {
        // Stage weight cycles through five levels so chunk boundaries
        // matter; the per-cell jitter keeps PUs from tying exactly.
        const double stage_ms = 1.0 + 0.6 * static_cast<double>(
                                    (s * 7) % 5);
        for (int p = 0; p < soc.numPus(); ++p) {
            const double speed = 0.6
                + 0.2 * static_cast<double>((p * 3 + s) % 7);
            const double jitter
                = 0.75 + 0.5 * cellJitter(0xDEE9, s, p);
            table.set(s, p, 1e-3 * stage_ms * jitter / speed);
        }
    }
    return table;
}

platform::ContentionProfile
deepPipelineContention(const platform::SocDescription& soc,
                       const core::ProfilingTable& table)
{
    platform::ContentionProfile prof;
    prof.numStages = table.numStages();
    prof.numPus = table.numPus();
    prof.numBuckets = platform::ContentionModel::kBuckets;

    const std::size_t cells = static_cast<std::size_t>(prof.numStages)
        * static_cast<std::size_t>(prof.numPus);
    prof.demandGbps_.resize(cells);
    prof.demandMilli_.resize(cells);
    // Every bucket stretches by exactly 1.0: the instance exercises
    // C6 budgets, not ambient slowdown.
    prof.stretch_.assign(cells * static_cast<std::size_t>(prof.numBuckets),
                         1.0);
    for (int s = 0; s < prof.numStages; ++s) {
        for (int p = 0; p < prof.numPus; ++p) {
            // Memory intensity in [0.25, 0.95): hungry stages on fat
            // links exceed an equal-share budget, frugal links never
            // do, so C6 filtering has real work.
            const double intensity
                = 0.25 + 0.7 * cellJitter(0xC6DE, s, p);
            const double gbps = soc.pus[static_cast<std::size_t>(p)]
                                    .memBwGbps
                * intensity;
            const std::size_t i = prof.cellIndex(s, p);
            prof.demandGbps_[i] = gbps;
            prof.demandMilli_[i]
                = platform::ContentionModel::milliGbps(gbps);
        }
    }
    return prof;
}

std::string
baselineCell(double cpu_ms, double gpu_ms)
{
    const bool cpu_wins = cpu_ms <= gpu_ms;
    std::string cell = Table::num(cpu_ms, 2) + " | "
        + Table::num(gpu_ms, 2);
    return (cpu_wins ? "*" : " ") + cell
        + (cpu_wins ? " " : " *");
}

void
printHeader(const std::string& title, const std::string& paper_ref)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("(reproduces %s)\n\n", paper_ref.c_str());
}

} // namespace bt::bench
