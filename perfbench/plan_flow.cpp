/**
 * @file
 * plan_flow: a closed loop with one caller sweeping bt::Framework::run
 * over the Fig. 4 grid (3 paper apps x 4 paper devices, default
 * FrameworkConfig, noise salts from the seed). It exercises lint, profiler,
 * optimizer, autotuner and the DES; it never touches the service, the
 * schedule cache or the kernels.
 *
 * The noise salt shifts the profiled times and with them how many
 * candidates the autotuner replays: one salt's grid costs up to ~7% more
 * than another's. A sweep therefore covers the grid under kSalts salts,
 * the seed first, so a run's cost does not hinge on one salt.
 */

#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "workloads.hpp"

namespace bt::perfbench {

namespace {

constexpr std::size_t kSalts = 4;

/**
 * The Fig. 4 grid under kSalts noise salts: one Framework per (salt,
 * device), framework f running device f % socs under salt f / socs.
 */
struct Grid
{
    std::vector<FrameworkConfig> cfgs; ///< per salt, the seed's first
    std::vector<core::Application> apps;
    std::vector<platform::SocDescription> socs;
    std::vector<std::unique_ptr<Framework>> frameworks;

    const platform::SocDescription&
    socOf(std::size_t f) const
    {
        return socs[f % socs.size()];
    }

    const FrameworkConfig&
    cfgOf(std::size_t f) const
    {
        return cfgs[f / socs.size()];
    }

    /** Calls per salt: the Fig. 4 grid itself. */
    std::size_t perSalt() const { return socs.size() * apps.size(); }
};

std::unique_ptr<Grid>
makeGrid(std::uint64_t seed)
{
    auto grid = std::make_unique<Grid>();
    grid->apps.push_back(apps::alexnetDense());
    grid->apps.push_back(apps::alexnetSparse());
    grid->apps.push_back(apps::octreeApp());
    grid->socs = platform::paperDevices();
    for (std::size_t k = 0; k < kSalts; ++k) {
        FrameworkConfig cfg;
        cfg.run.noiseSalt = k == 0 ? seed : hashCombine(seed, k);
        grid->cfgs.push_back(cfg);
    }
    for (const auto& cfg : grid->cfgs)
        for (const auto& soc : grid->socs)
            grid->frameworks.push_back(std::make_unique<Framework>(soc, cfg));
    return grid;
}

/** What one flow decided: the winner and the numbers derived from it. */
struct Decision
{
    std::vector<int> assignment;
    std::string compact;
    double latency = 0.0;
    double speedup = 0.0;

    bool
    operator==(const Decision& o) const
    {
        return assignment == o.assignment && latency == o.latency
            && speedup == o.speedup;
    }
};

Decision
decisionOf(const core::BetterTogetherReport& r)
{
    return {r.bestSchedule.toAssignment(), r.bestSchedule.compactString(),
            r.bestLatencySeconds, r.speedupOverBestBaseline()};
}

/** Wall time of each public call the flow makes, seconds. */
struct Phases
{
    double lint = 0.0;
    double profile = 0.0;
    double optimize = 0.0;
    double tune = 0.0;
    double deploy = 0.0;
    double baselines = 0.0;

    double
    total() const
    {
        return lint + profile + optimize + tune + deploy + baselines;
    }

    void
    operator+=(const Phases& o)
    {
        lint += o.lint;
        profile += o.profile;
        optimize += o.optimize;
        tune += o.tune;
        deploy += o.deploy;
        baselines += o.baselines;
    }
};

/** Planner-side counts of one replica flow. */
struct FlowCounts
{
    double solverNodes = 0.0;
    double evalHits = 0.0;
    double evalLookups = 0.0;
    double candidates = 0.0;
    double tunerRuns = 0.0;
};

/** Seconds since @p t, then reset @p t to now. */
double
lap(Clock::time_point& t)
{
    const auto now = Clock::now();
    const double s = secondsBetween(t, now);
    t = now;
    return s;
}

/**
 * The traced replica of Framework::run: the same public calls in the
 * same order (lint preflight, profile, optimize, autotune, deploy, the
 * two homogeneous baselines), each timed from outside.
 */
Decision
replica(const Grid& grid, std::size_t f, const core::Application& app,
        Phases& ph, FlowCounts& counts, Outcome& out)
{
    const auto& soc = grid.socOf(f);
    const auto& model = grid.frameworks[f]->model();
    const FrameworkConfig& cfg = grid.cfgOf(f);

    auto t = Clock::now();
    const lint::Report pre
        = lint::lintPreflight(soc, app, cfg.optimizer, cfg.run);
    ph.lint = lap(t);

    const core::Profiler profiler(model, cfg.profiler);
    const core::ProfileResult profile = profiler.profile(app);
    ph.profile = lap(t);

    core::Optimizer optimizer(soc, profile.interference, cfg.optimizer);
    const std::vector<core::Candidate> candidates = optimizer.optimize();
    ph.optimize = lap(t);

    const core::SimExecutor executor(model, cfg.run);
    const core::AutoTuner tuner(executor, 10.0, cfg.tunerThreads);
    const core::TuningReport tuning = tuner.tune(app, candidates);
    ph.tune = lap(t);

    core::BetterTogetherReport r;
    r.bestSchedule = tuning.best().candidate.schedule;
    r.bestLatencySeconds = tuning.best().measuredLatency;
    r.deployedRun = executor.execute(app, r.bestSchedule);
    ph.deploy = lap(t);

    const int n = app.numStages();
    r.cpuBaselineSeconds
        = executor.execute(app, core::Schedule::homogeneous(
                                    n, soc.bigCpuIndex()))
              .taskIntervalSeconds;
    r.gpuBaselineSeconds
        = executor.execute(app,
                           core::Schedule::homogeneous(n, soc.gpuIndex()))
              .taskIntervalSeconds;
    ph.baselines = lap(t);

    out.check(pre.errors() == 0, "lint preflight of " + app.name()
                                     + " on " + soc.name + " has errors");
    const core::OptimizeStats& st = optimizer.stats();
    counts.solverNodes += static_cast<double>(st.solverNodes);
    counts.evalHits += static_cast<double>(st.evalHits);
    counts.evalLookups += static_cast<double>(st.evalHits + st.evalMisses);
    counts.candidates += static_cast<double>(candidates.size());
    counts.tunerRuns += static_cast<double>(tuning.all.size());
    return decisionOf(r);
}

/**
 * fn(framework, app, call index) for each call of one sweep: salt-major,
 * then device-major (the CSV order), so the first perSalt() calls are
 * the seed's Fig. 4 grid.
 */
template <typename Fn>
void
forEachCall(const Grid& grid, Fn&& fn)
{
    for (std::size_t f = 0; f < grid.frameworks.size(); ++f)
        for (std::size_t a = 0; a < grid.apps.size(); ++a)
            fn(f, grid.apps[a], f * grid.apps.size() + a);
}

std::vector<Decision>
sweep(const Grid& grid)
{
    std::vector<Decision> out;
    forEachCall(grid, [&](std::size_t f, const core::Application& app,
                          std::size_t) {
        out.push_back(decisionOf(grid.frameworks[f]->run(app)));
    });
    return out;
}

/** Speedup geomean of the seed's Fig. 4 grid (the first perSalt()). */
double
speedupGeomean(const Grid& grid, const std::vector<Decision>& ds)
{
    std::vector<double> s;
    for (std::size_t i = 0; i < grid.perSalt(); ++i)
        s.push_back(ds[i].speedup);
    return geomean(s);
}

/**
 * Seed 0 is the salt the committed Fig. 4 results were made with: every
 * winner must match results/fig4_speedup.csv, and so must the geomean.
 */
void
checkAgainstFig4(const Grid& grid, const std::vector<Decision>& ref,
                 const std::string& root, Outcome& out)
{
    std::ifstream csv(root + "/results/fig4_speedup.csv");
    out.check(csv.good(), "results/fig4_speedup.csv not readable");
    if (!csv.good())
        return;
    std::map<std::string, std::pair<double, std::string>> rows;
    std::string line;
    std::getline(csv, line); // header
    while (std::getline(csv, line)) {
        std::vector<std::string> cells;
        std::stringstream ss(line);
        for (std::string cell; std::getline(ss, cell, ',');)
            cells.push_back(cell);
        if (cells.size() == 7)
            rows[cells[0] + "/" + cells[1]]
                = {std::stod(cells[5]), cells[6]};
    }
    std::vector<double> csvSpeedups;
    forEachCall(grid, [&](std::size_t f, const core::Application& app,
                          std::size_t i) {
        if (i >= grid.perSalt())
            return;
        const std::string key = grid.socOf(f).name + "/" + app.name();
        const auto it = rows.find(key);
        out.check(it != rows.end(), "fig4 CSV has no row " + key);
        if (it == rows.end())
            return;
        csvSpeedups.push_back(it->second.first);
        out.check(it->second.second == ref[i].compact,
                  "fig4 winner of " + key + " is " + ref[i].compact
                      + ", CSV says " + it->second.second);
    });
    if (csvSpeedups.size() == grid.perSalt()) {
        const double want = geomean(csvSpeedups);
        const double got = speedupGeomean(grid, ref);
        out.check(std::abs(got - want) <= 1e-4,
                  "speedup geomean " + std::to_string(got)
                      + " differs from the fig4 CSV's "
                      + std::to_string(want));
    }
}

} // namespace

void
planFlow(const RunSpec& spec, Outcome& out)
{
    CoreRotation cores;
    std::unique_ptr<Grid> grid;
    std::vector<Decision> ref;
    // Set-up builds the grid and makes one warm sweep, whose decisions
    // are the reference every measured call is compared against.
    const double setup = medianSetup(7, [&] {
        cores.next();
        grid = makeGrid(spec.seed);
        ref = sweep(*grid);
    });

    std::vector<double> ms, sweepRate;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < spec.seconds) {
        cores.next();
        const auto tSweep = Clock::now();
        forEachCall(*grid, [&](std::size_t f, const core::Application& app,
                               std::size_t i) {
            const auto t = Clock::now();
            const FrameworkReport r = grid->frameworks[f]->run(app);
            ms.push_back(secondsSince(t) * 1e3);
            ++out.attempted;
            if (!(decisionOf(r) == ref[i]))
                ++out.failed;
        });
        sweepRate.push_back(static_cast<double>(ref.size())
                            / secondsSince(tSweep));
    }

    // The traced public-call replica must decide exactly what the
    // facade decided.
    forEachCall(*grid, [&](std::size_t f, const core::Application& app,
                           std::size_t i) {
        Phases ph;
        FlowCounts counts;
        out.check(replica(*grid, f, app, ph, counts, out) == ref[i],
                  "replica of " + app.name() + " on "
                      + grid->socOf(f).name + " (salt "
                      + std::to_string(grid->cfgOf(f).run.noiseSalt)
                      + ") decided differently from Framework::run");
    });
    if (spec.seed == 0)
        checkAgainstFig4(*grid, ref, spec.root, out);

    const Tail tail = tailOf(ms);
    Outcome::note("plan_flow: " + std::to_string(ms.size())
                  + " Framework::run calls in " + std::to_string(
                      sweepRate.size())
                  + " sweeps, p50 " + std::to_string(median(ms))
                  + " ms, p" + std::to_string(tail.percentile) + " "
                  + std::to_string(tail.value) + " ms; median sweep "
                  + std::to_string(median(sweepRate))
                  + " calls/s; speedup_geomean "
                  + std::to_string(speedupGeomean(*grid, ref)));

    out.metrics.add("setup_s", setup, "s");
    out.metrics.add("latency_ms", median(ms), "ms");
    out.metrics.add("throughput_per_s", fastRate(sweepRate), "1/s");
    out.metrics.add("peak_rss_mb", peakRssMb(), "MiB");
}

void
planFlowLayers(const RunSpec& spec, double seconds, Outcome& out)
{
    const auto grid = makeGrid(spec.seed);
    const std::vector<Decision> ref = sweep(*grid);

    Phases sum;
    FlowCounts counts;
    double runSeconds = 0.0;
    double replicaSeconds = 0.0;
    std::vector<double> runMs;
    CoreRotation cores;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < seconds) {
        cores.next();
        forEachCall(*grid, [&](std::size_t f, const core::Application& app,
                               std::size_t i) {
            auto t = Clock::now();
            const FrameworkReport r = grid->frameworks[f]->run(app);
            const double run = lap(t);
            Phases ph;
            const Decision mine = replica(*grid, f, app, ph, counts, out);
            replicaSeconds += lap(t);
            runSeconds += run;
            runMs.push_back(run * 1e3);
            sum += ph;
            out.attempted += 2;
            out.failed += (decisionOf(r) == ref[i] ? 0 : 1)
                + (mine == ref[i] ? 0 : 1);
        });
    }

    const double calls = static_cast<double>(runMs.size());
    const double unaccounted = 1.0 - sum.total() / runSeconds;
    Outcome::note("layer sum plan_flow: phases " + std::to_string(
                      sum.total() / calls * 1e3)
                  + " ms of Framework::run " + std::to_string(
                      runSeconds / calls * 1e3)
                  + " ms per call, unaccounted "
                  + std::to_string(unaccounted * 100.0) + "%"
                  + (std::abs(unaccounted) <= 0.10 ? "" : "  [OVER 10%]"));

    auto& m = out.metrics;
    m.add("lint.preflight_us", sum.lint / calls * 1e6, "us");
    m.add("profiler.profile_us", sum.profile / calls * 1e6, "us");
    m.add("optimizer.optimize_ms", sum.optimize / calls * 1e3, "ms");
    m.add("optimizer.solver_nodes", counts.solverNodes / calls, "count");
    m.add("optimizer.eval_hit_rate",
          counts.evalLookups > 0 ? counts.evalHits / counts.evalLookups
                                 : 0.0,
          "ratio");
    m.add("optimizer.candidates", counts.candidates / calls, "count");
    m.add("autotuner.tune_ms", sum.tune / calls * 1e3, "ms");
    m.add("autotuner.runs", counts.tunerRuns / calls, "count");
    m.add("flow.deploy_ms", sum.deploy / calls * 1e3, "ms");
    m.add("flow.baselines_ms", sum.baselines / calls * 1e3, "ms");
    m.add("flow.layer_sum_ms", sum.total() / calls * 1e3, "ms");
    m.add("flow.run_ms", runSeconds / calls * 1e3, "ms");
    m.add("flow.unaccounted_share", unaccounted, "ratio");
    m.add("flow.trace_overhead", replicaSeconds / runSeconds - 1.0,
          "ratio");
    const Tail tail = tailOf(runMs);
    m.add("flow.tail_ms", tail.value, "ms");
    m.add("flow.tail_pct", tail.percentile, "pct");
    m.add("flow.speedup_geomean", speedupGeomean(*grid, ref), "x");
}

} // namespace bt::perfbench
