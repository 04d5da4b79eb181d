/**
 * @file
 * bt_explorer: a command-line front end to the whole framework. Pick a
 * simulated device and an application, tweak the optimizer, cache
 * profiling tables on disk, and optionally compare against the dynamic
 * and data-parallel baselines and report energy.
 *
 *     bt_explorer --device pixel --app octree
 *     bt_explorer --device manycore --app dense --no-autotune
 *     bt_explorer --device jetson --app sparse --no-autotune --energy
 *     bt_explorer --device oneplus --app dense \
 *                 --save-profile /tmp/p.csv
 *     bt_explorer --device oneplus --app dense \
 *                 --load-profile /tmp/p.csv --compare-dynamic
 *     bt_explorer --device pixel --app octree \
 *                 --faults plan.json --json report.json
 *     bt_explorer --check --app all --json check.json
 *     bt_explorer --check-fixtures
 *     bt_explorer --lint --app all --json lint.json
 *     bt_explorer --lint --faults plan.json
 *     bt_explorer --lint-fixtures
 *     bt_explorer --serve --serve-requests 400 --json serve.json
 *
 * Exit codes (uniform across every mode): 0 = clean, 1 = usage error
 * (including a flag or fault plan outside its range rules) or fixture
 * failure, 2 = findings (check/lint findings, an invalid deployed run,
 * failed serving requests).
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "apps/alexnet.hpp"
#include "apps/app_check.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "check/fixtures.hpp"
#include "common/flags.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "lint/fixtures.hpp"
#include "lint/lint.hpp"
#include "core/data_parallel.hpp"
#include "platform/devices.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/virtual_backend.hpp"
#include "service/service.hpp"

using namespace bt;

namespace {

struct Options
{
    std::string device = "pixel";
    std::string app = "octree";
    int candidates = 20;
    bool no_autotune = false;
    bool energy = false;
    bool compare_dynamic = false;
    double latency_slack = 0.45;
    double gapness_slack = 1.0;
    bool edp_objective = false;
    std::string save_profile;
    std::string load_profile;
    std::string trace_file;
    std::string faults_file;
    std::string json_file;
    bool check = false;
    bool check_fixtures = false;
    bool lint = false;
    bool lint_fixtures = false;
    bool serve = false;
    int serve_requests = 200;
    int serve_workers = 4;
    int serve_sessions = 4;
};

/**
 * The planner's objective value of @p c under @p spec — what the
 * engine that ran ranked by, echoed as "plan_cost" in every JSON
 * report so engines can be compared like for like.
 */
double
planCost(const core::Candidate& c, const core::PlannerSpec& spec)
{
    return spec.objective == core::PlannerSpec::Objective::EnergyDelay
        ? c.predictedEdp()
        : c.predictedLatency;
}

bool
parse(int argc, char** argv, Options& opt)
{
    FlagSet flags("bt_explorer");
    flags.value("--device", &opt.device, "NAME",
                "pixel|oneplus|jetson|jetson-lp|manycore (default "
                "pixel)");
    flags.value("--app", &opt.app, "NAME",
                "dense|sparse|octree (default octree)");
    flags.value("--candidates", &opt.candidates, "K",
                "optimizer output size (default 20)");
    flags.flag("--no-autotune", &opt.no_autotune,
               "deploy the predicted-best schedule");
    flags.flag("--energy", &opt.energy,
               "report energy per task and power");
    flags.flag("--compare-dynamic", &opt.compare_dynamic,
               "also run the dynamic/data-parallel baselines");
    flags.value("--latency-slack", &opt.latency_slack, "F",
                "level-1 latency slack (default 0.45)");
    flags.value("--gapness-slack", &opt.gapness_slack, "F",
                "level-1 gapness slack (default 1.0)");
    flags.flag("--objective-edp", &opt.edp_objective,
               "rank candidates by energy-delay product");
    flags.value("--save-profile", &opt.save_profile, "FILE",
                "write the interference table as CSV");
    flags.value("--load-profile", &opt.load_profile, "FILE",
                "reuse a cached interference table");
    flags.value("--trace", &opt.trace_file, "FILE",
                "write the deployed run's timeline as Chrome trace "
                "JSON (chrome://tracing / Perfetto)");
    flags.value("--faults", &opt.faults_file, "FILE",
                "inject the FaultPlan in this JSON file into the "
                "deployed run (see docs/RUNTIME.md)");
    flags.value("--json", &opt.json_file, "FILE",
                "write a machine-readable report of the deployed run");
    flags.flag("--check", &opt.check,
               "run the app's device kernels under bt::check (races, "
               "OOB, launch geometry, block-order shuffles) instead of "
               "exploring; --app all sweeps every workload; exit 2 on "
               "findings");
    flags.flag("--check-fixtures", &opt.check_fixtures,
               "run the seeded-defect fixtures; exit 1 unless bt::check "
               "flags every one");
    flags.flag("--lint", &opt.lint,
               "statically analyze the app's pipeline, planner spec and "
               "run config (bt::lint) without executing anything; "
               "--app all sweeps every workload, --faults lints the "
               "plan too; exit 2 on findings");
    flags.flag("--lint-fixtures", &opt.lint_fixtures,
               "run the seeded-defect lint fixtures; exit 1 unless "
               "bt::lint flags every one");
    flags.flag("--serve", &opt.serve,
               "run the multi-tenant serving demo (bt::Service): a "
               "worker pool with PU leasing and the keyed schedule "
               "cache serves a mixed request stream; --json/--trace "
               "write the serving report and merged timeline");
    flags.value("--serve-requests", &opt.serve_requests, "N",
                "requests offered to the serving demo (default 200)");
    flags.value("--serve-workers", &opt.serve_workers, "N",
                "serving worker pool size (default 4)");
    flags.value("--serve-sessions", &opt.serve_sessions, "N",
                "tenant sessions in the request mix (default 4)");
    return flags.parse(argc, argv);
}

/** `--check-fixtures`: negative control - every seeded bug must fire. */
int
runCheckFixtures()
{
    bool all_flagged = true;
    for (const auto& r : check::runSeededDefects()) {
        std::printf("%-12s expect %-21s -> %s (%zu findings)\n",
                    r.name.c_str(),
                    std::string(check::findingKindName(r.expected))
                        .c_str(),
                    r.flagged ? "flagged" : "MISSED", r.totalFindings);
        all_flagged = all_flagged && r.flagged;
    }
    std::printf("%s\n", all_flagged
                            ? "all seeded defects flagged"
                            : "seeded defects MISSED - checker broken");
    return all_flagged ? 0 : 1;
}

/** `--lint-fixtures`: negative control - every seeded defect must
 *  lint with its expected diagnostic kind. */
int
runLintFixtures()
{
    bool all_flagged = true;
    for (const auto& r : lint::runSeededDefects()) {
        std::printf("%-22s expect %-22s -> %s (%zu findings)\n",
                    r.name.c_str(),
                    std::string(lint::diagnosticKindName(r.expected))
                        .c_str(),
                    r.flagged ? "flagged" : "MISSED", r.totalFindings);
        all_flagged = all_flagged && r.flagged;
    }
    std::printf("%s\n", all_flagged
                            ? "all seeded defects flagged"
                            : "seeded defects MISSED - linter broken");
    return all_flagged ? 0 : 1;
}

core::Application pickApp(const std::string& name);
platform::SocDescription pickDevice(const std::string& name);

/** The planner spec the flags ask for. */
core::PlannerSpec
specFrom(const Options& opt)
{
    core::PlannerSpec spec;
    spec.numCandidates = opt.candidates;
    spec.latencySlack = opt.latency_slack;
    spec.gapnessSlack = opt.gapness_slack;
    if (opt.edp_objective)
        spec.objective = core::PlannerSpec::Objective::EnergyDelay;
    return spec;
}

/** Parse the --faults plan, if one is given, into @p run; false, with
 *  the reason on stderr, when the file cannot be opened or does not
 *  parse. */
bool
loadFaults(const Options& opt, runtime::RunConfig& run)
{
    if (opt.faults_file.empty())
        return true;
    // A directory opens as a stream that reads nothing, which would
    // surface as a JSON syntax error at byte 0.
    std::error_code ec;
    std::ifstream in(opt.faults_file);
    if (!in || std::filesystem::is_directory(opt.faults_file, ec)) {
        std::fprintf(stderr,
                     "could not open fault plan %s: not a readable file\n",
                     opt.faults_file.c_str());
        return false;
    }
    runtime::PlanParseError perr;
    auto plan = runtime::FaultPlan::fromJson(in, perr);
    if (!plan) {
        std::fprintf(stderr, "could not parse fault plan %s: %s\n",
                     opt.faults_file.c_str(), perr.toString().c_str());
        return false;
    }
    run.faults = std::move(*plan);
    return true;
}

/**
 * Before anything runs: false, with every broken range rule of the
 * spec and the run config on stderr, when a flag or the fault plan is
 * out of range - a usage error (exit 1), not a planner or backend
 * panic.
 */
bool
inRange(const core::PlannerSpec& spec, const runtime::RunConfig& run,
        int num_stages, int num_pus)
{
    auto problems = spec.problems(num_pus);
    for (auto& p : run.problems(num_stages, num_pus))
        problems.push_back(std::move(p));
    bool ok = true;
    for (const auto& p : problems) {
        if (p.kind != runtime::PlanParseErrorKind::Range)
            continue;
        std::fprintf(stderr, "out of range: %s\n", p.message.c_str());
        ok = false;
    }
    return ok;
}

/** `--lint`: static preflight of the selected workload(s) - pipeline
 *  IO, planner spec, run config and fault plan - with no execution. */
int
runLint(const Options& opt)
{
    std::vector<std::string> names;
    if (opt.app == "all")
        names = {"dense", "sparse", "octree"};
    else
        names = {opt.app};

    const auto soc = pickDevice(opt.device);
    const core::PlannerSpec spec = specFrom(opt);
    runtime::RunConfig run;
    if (!loadFaults(opt, run))
        return 1;

    lint::Report merged;
    for (const auto& name : names) {
        auto report = lint::lintPreflight(soc, pickApp(name), spec,
                                          run);
        std::printf("[%s] %s\n", name.c_str(),
                    report.summary().c_str());
        merged.merge(std::move(report));
    }
    merged.print(std::cout);

    if (!opt.json_file.empty()) {
        std::ofstream out(opt.json_file);
        merged.writeJson(out);
        std::printf("wrote lint report to %s\n",
                    opt.json_file.c_str());
    }
    return merged.clean() ? 0 : 2;
}

/** `--check`: sweep the selected workload(s) under bt::check, then
 *  plan each of them so the report also says what the planner would
 *  deploy on the chosen device. */
int
runCheck(const Options& opt)
{
    std::vector<std::string> names;
    if (opt.app == "all")
        names = {"dense", "sparse", "octree"};
    else
        names = {opt.app};

    check::Report merged;
    for (const auto& name : names) {
        auto report = apps::checkScaledApp(name);
        std::printf("[%s] %s\n", name.c_str(),
                    report.summary().c_str());
        merged.merge(std::move(report));
    }
    merged.print(std::cout);

    // Planning pass: the optimizer picks each app's engine from the
    // size of its schedule space, as in every other mode.
    const auto soc = pickDevice(opt.device);
    const Framework flow(soc);
    const core::PlannerSpec spec;
    std::ostringstream report;
    json::Writer w(report);
    w.beginObject();
    merged.writeMembers(w);
    w.key("planning").beginObject().key("apps").beginArray();
    for (const auto& name : names) {
        const auto [cands, stats]
            = flow.optimize(flow.profile(pickApp(name)), spec);
        const double cost = planCost(cands.front(), spec);
        const char* engine = core::plannerEngineName(stats.engine);
        std::printf("[%s] planned with the %s engine on %s: front "
                    "cost %.3f ms over %llu schedules\n",
                    name.c_str(), engine, soc.name.c_str(), cost * 1e3,
                    static_cast<unsigned long long>(stats.spaceSize));
        w.beginObject().member("app", name).member("engine", engine);
        w.member("plan_cost", cost).endObject();
    }
    w.endArray().endObject().endObject();

    if (!opt.json_file.empty()) {
        std::ofstream(opt.json_file) << report.str();
        std::printf("wrote check report to %s\n",
                    opt.json_file.c_str());
    }
    return merged.clean() ? 0 : 2;
}

/**
 * `--serve`: the multi-tenant serving demo. Every workload of the
 * device is registered as a tenant application; a mixed stream of
 * requests from --serve-sessions tenants runs through the worker pool,
 * and the serving report (throughput, latency percentiles, schedule
 * cache hit rate) is printed and optionally written as JSON.
 *
 * With --json the mode behaves like the others: the machine-readable
 * ServiceReport goes to the named file ("-" = stdout) and the human
 * summary moves to stderr, so piped consumers see only JSON.
 */
int
runServe(const Options& opt, const platform::SocDescription& soc)
{
    // Human-readable lines: stdout normally, stderr when a JSON
    // consumer owns stdout's role.
    std::FILE* hout = opt.json_file.empty() ? stdout : stderr;

    service::ServiceConfig cfg;
    cfg.workers = opt.serve_workers;
    cfg.queueCapacity = std::max(opt.serve_requests, 1);
    cfg.run.numTasks = 12;
    cfg.collectTraces = !opt.trace_file.empty();

    service::Service svc(soc, cfg);
    svc.registerApp(apps::alexnetDense());
    svc.registerApp(apps::alexnetSparse());
    svc.registerApp(apps::octreeApp());
    // Registered names differ per variant; take them from the apps.
    const std::vector<std::string> appNames
        = {apps::alexnetDense().name(), apps::alexnetSparse().name(),
           apps::octreeApp().name()};

    std::fprintf(hout,
                 "serving on %s: %d workers, %d tenant sessions, %d "
                 "requests\n",
                 soc.name.c_str(), cfg.workers, opt.serve_sessions,
                 opt.serve_requests);
    svc.start();
    for (int i = 0; i < opt.serve_requests; ++i) {
        service::Request req;
        req.session = i % std::max(opt.serve_sessions, 1);
        req.app = appNames[static_cast<std::size_t>(i)
                           % appNames.size()];
        svc.submit(std::move(req));
    }
    svc.drain();
    const auto report = svc.report();
    svc.stop();

    std::fprintf(hout,
                 "served %lld/%lld requests (%lld dropped, %lld "
                 "failed) in %.1f ms\n",
                 static_cast<long long>(report.completed),
                 static_cast<long long>(report.submitted),
                 static_cast<long long>(report.dropped),
                 static_cast<long long>(report.failed),
                 report.wallSeconds * 1e3);
    std::fprintf(hout,
                 "throughput: %.0f req/s | latency p50 %.3f ms, p99 "
                 "%.3f ms\n",
                 report.throughputRps, report.p50Ms, report.p99Ms);
    std::fprintf(hout,
                 "schedule cache: %.1f%% hit rate (%llu hits, %llu "
                 "misses, %llu evictions); %lld planner runs took "
                 "%.1f ms total\n",
                 report.cache.hitRate() * 1e2,
                 static_cast<unsigned long long>(report.cache.hits),
                 static_cast<unsigned long long>(report.cache.misses),
                 static_cast<unsigned long long>(
                     report.cache.evictions),
                 static_cast<long long>(report.plans),
                 report.planSeconds * 1e3);
    std::fprintf(hout, "planner: %lld plans annealed\n",
                 static_cast<long long>(report.annealedFallbacks));
    for (const auto& [session, count] : report.perSession)
        std::fprintf(hout, "  session %d: %lld requests\n", session,
                     static_cast<long long>(count));

    if (!opt.trace_file.empty()) {
        std::ofstream out(opt.trace_file);
        report.trace.writeChromeJson(out);
        std::fprintf(hout, "wrote merged serving timeline to %s\n",
                     opt.trace_file.c_str());
    }
    if (!opt.json_file.empty()) {
        if (opt.json_file == "-") {
            report.writeJson(std::cout);
            std::cout << '\n';
        } else {
            std::ofstream out(opt.json_file);
            report.writeJson(out);
            std::fprintf(hout, "wrote serving report to %s\n",
                         opt.json_file.c_str());
        }
    }
    // Findings (lost or failed requests) exit 2, like --check/--lint.
    return report.completed == report.submitted
            && report.failed == 0
        ? 0
        : 2;
}

platform::SocDescription
pickDevice(const std::string& name)
{
    if (name == "pixel")
        return platform::pixel7a();
    if (name == "oneplus")
        return platform::oneplus11();
    if (name == "jetson")
        return platform::jetsonOrinNano();
    if (name == "jetson-lp")
        return platform::jetsonOrinNanoLp();
    if (name == "manycore")
        return platform::manycoreRig();
    bt::fatal("unknown device: ", name);
}

core::Application
pickApp(const std::string& name)
{
    if (name == "dense")
        return apps::alexnetDense();
    if (name == "sparse")
        return apps::alexnetSparse();
    if (name == "octree")
        return apps::octreeApp();
    bt::fatal("unknown application: ", name);
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!parse(argc, argv, opt))
        return 1;

    if (opt.check_fixtures)
        return runCheckFixtures();
    if (opt.lint_fixtures)
        return runLintFixtures();
    if (opt.check)
        return runCheck(opt);
    if (opt.lint)
        return runLint(opt);
    if (opt.serve)
        return runServe(opt, pickDevice(opt.device));

    const auto soc = pickDevice(opt.device);
    const auto app = pickApp(opt.app);
    FrameworkConfig fcfg;
    fcfg.optimizer = specFrom(opt);
    if (!loadFaults(opt, fcfg.run)
        || !inRange(fcfg.optimizer, fcfg.run, app.numStages(),
                    soc.numPus()))
        return 1;
    // Tuning and the baselines measure fault-free; the FaultPlan
    // applies only to the deployment run.
    const Framework flow(soc, fcfg);
    std::printf("device: %s | app: %s (%d stages)\n\n",
                soc.name.c_str(), app.name().c_str(), app.numStages());

    // Profiling, or a cached table.
    core::ProfileResult profile;
    if (!opt.load_profile.empty()) {
        std::ifstream in(opt.load_profile);
        auto loaded = core::ProfilingTable::loadCsv(in);
        if (!loaded) {
            std::fprintf(stderr, "could not parse %s\n",
                         opt.load_profile.c_str());
            return 1;
        }
        profile.interference = *loaded;
        profile.isolated = *loaded; // cached runs reuse one table
        std::printf("loaded cached profiling table from %s\n",
                    opt.load_profile.c_str());
    } else {
        profile = flow.profile(app);
        std::printf("profiled in %.0f virtual seconds\n",
                    profile.profilingCostSeconds);
    }
    if (!opt.save_profile.empty()) {
        std::ofstream out(opt.save_profile);
        profile.interference.saveCsv(out);
        std::printf("saved interference table to %s\n",
                    opt.save_profile.c_str());
    }
    std::printf("\ninterference-aware table (ms):\n");
    profile.interference.print(std::cout);

    // Optimize (+ autotune).
    const auto [candidates, planner]
        = flow.optimize(profile, fcfg.optimizer);
    const double front_cost = planCost(candidates.front(), fcfg.optimizer);
    const char* engine = core::plannerEngineName(planner.engine);
    std::printf("\nplanner: %s engine, %llu-schedule space, front "
                "cost %.3f ms\n",
                engine,
                static_cast<unsigned long long>(planner.spaceSize),
                front_cost * 1e3);

    core::Schedule best = candidates.front().schedule;
    if (!opt.no_autotune) {
        const auto tuned = flow.autotune(app, candidates);
        best = tuned.best().candidate.schedule;
        std::printf("\nautotuned over %zu candidates (gain %.2fx, "
                    "campaign %.0f s virtual)\n",
                    tuned.all.size(), tuned.autotuningGain(),
                    tuned.campaignCostSeconds);
    }

    if (!opt.faults_file.empty()) {
        const runtime::FaultPlan& faults = fcfg.run.faults;
        std::printf("\ninjecting fault plan from %s (%zu slowdowns, "
                    "%zu transients, %zu stragglers, %zu dropouts)\n",
                    opt.faults_file.c_str(), faults.slowdowns.size(),
                    faults.transients.size(), faults.stragglers.size(),
                    faults.dropouts.size());
    }

    std::vector<std::string> names;
    for (const auto& s : app.stages())
        names.push_back(s.name());
    const auto run = flow.deploy(app, best);
    std::printf("\ndeployed schedule: %s\n",
                best.toString(soc, names).c_str());
    // An invalid run has no latency to report: its abandoned stages
    // can complete the stream at one instant and read as infinitely
    // fast. Text says n/a; JSON writes null (a NaN).
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double latency_ms = run.valid() ? run.latencyMs() : nan;
    if (run.valid())
        std::printf("latency: %.3f ms/task (makespan %.1f ms for %d "
                    "tasks)\n",
                    latency_ms, run.makespanSeconds * 1e3, run.tasks);
    else
        std::printf("latency: n/a (invalid run)\n");

    // Baselines.
    const double cpu_ms
        = flow.measureHomogeneous(app, soc.bigCpuIndex()) * 1e3;
    const double gpu_ms
        = flow.measureHomogeneous(app, soc.gpuIndex()) * 1e3;
    const double speedup = std::min(cpu_ms, gpu_ms) / latency_ms;
    std::printf("baselines: CPU-only %.3f ms | GPU-only %.3f ms | ",
                cpu_ms, gpu_ms);
    if (run.valid())
        std::printf("speedup over best %.2fx\n", speedup);
    else
        std::printf("speedup over best n/a\n");

    if (opt.energy) {
        std::printf("\nenergy: %.2f mJ/task, average power %.2f W "
                    "(device peak %.1f W)\n",
                    run.energyPerTaskJ() * 1e3, run.averagePowerW(),
                    soc.peakPowerW());
    }

    // Recovery statistics (all zero unless a fault plan was injected).
    if (!run.recovery.cleanRun()) {
        const auto& rec = run.recovery;
        std::printf("\nrecovery: %d transients, %d timeouts, %d "
                    "stragglers, %d dropouts -> %d retries, %d "
                    "remaps, %d replans, %d unrecovered (backoff "
                    "%.3f ms)\n",
                    rec.transientFaults, rec.timeouts, rec.stragglers,
                    rec.dropouts, rec.retries, rec.remaps, rec.replans,
                    rec.unrecovered, rec.backoffSeconds * 1e3);
    }

    // Timeline statistics derived from the deployed run's trace.
    const auto stats = run.trace.stats();
    {
        std::printf("\ntimeline: %d stage executions, %d recovery "
                    "events, bubble %.1f%%, interfered %.1f%%, mean "
                    "queue wait %.3f ms\n",
                    stats.events, stats.recoveryEvents,
                    stats.bubbleFraction * 1e2,
                    stats.interferedFraction * 1e2,
                    stats.meanQueueWaitSeconds * 1e3);
        for (int p = 0; p < soc.numPus(); ++p) {
            const auto& pu = stats.perPu[static_cast<std::size_t>(p)];
            if (pu.events == 0)
                continue;
            std::printf("  %-10s occupancy %5.1f%%  (%d stage "
                        "executions)\n",
                        soc.pu(p).label.c_str(), pu.occupancy * 1e2,
                        pu.events);
        }
    }
    if (!opt.trace_file.empty()) {
        std::ofstream out(opt.trace_file);
        run.trace.writeChromeJson(out);
        std::printf("wrote Chrome trace JSON to %s (load in "
                    "chrome://tracing or Perfetto)\n",
                    opt.trace_file.c_str());
    }

    if (opt.compare_dynamic) {
        // Same RunConfig as the deployment, fault plan included.
        const auto dyn_run
            = runtime::VirtualTimeBackend(flow.model())
                  .run(app, runtime::GreedyDispatch{&profile.interference},
                       fcfg.run);
        const double dp_ms
            = core::dataParallelLatency(app, profile.interference)
            * 1e3;
        if (dyn_run.valid())
            std::printf("\nalternatives: dynamic greedy %.3f ms/task "
                        "(50us dispatch)",
                        dyn_run.latencyMs());
        else
            std::printf("\nalternatives: dynamic greedy n/a (invalid "
                        "run)");
        std::printf(" | data-parallel %.3f ms/task (predicted)\n", dp_ms);
    }

    // Machine-readable report of the deployed run.
    if (!opt.json_file.empty()) {
        std::ofstream out(opt.json_file);
        const auto& rec = run.recovery;
        json::Writer w(out);
        w.beginObject().member("device", soc.name).member("app", app.name());
        w.member("engine", engine).member("plan_cost", front_cost);
        w.member("schedule", best.toString(soc, names));
        w.member("tasks", run.tasks).member("latency_ms", latency_ms);
        w.member("makespan_ms", run.makespanSeconds * 1e3);
        w.member("mean_latency_ms", run.valid()
                                        ? run.meanLatencySeconds * 1e3
                                        : nan);
        w.member("energy_per_task_mj", run.energyPerTaskJ() * 1e3);
        w.member("average_power_w", run.averagePowerW());
        w.member("cpu_baseline_ms", cpu_ms).member("gpu_baseline_ms", gpu_ms);
        w.member("speedup_over_best", speedup);
        w.member("valid", run.valid()).key("trace").beginObject();
        w.member("stage_events", stats.events);
        w.member("recovery_events", stats.recoveryEvents);
        w.member("bubble_fraction", stats.bubbleFraction);
        w.member("interfered_fraction", stats.interferedFraction);
        w.member("mean_queue_wait_ms", stats.meanQueueWaitSeconds * 1e3);
        w.endObject().key("recovery").beginObject();
        w.member("transient_faults", rec.transientFaults);
        w.member("timeouts", rec.timeouts).member("stragglers", rec.stragglers);
        w.member("retries", rec.retries).member("remaps", rec.remaps);
        w.member("dropouts", rec.dropouts).member("replans", rec.replans);
        w.member("unrecovered", rec.unrecovered);
        w.member("backoff_ms", rec.backoffSeconds * 1e3).endObject();
        w.endObject();
        std::printf("wrote JSON report to %s\n",
                    opt.json_file.c_str());
    }
    // A deployed run with invalid outputs is a finding: exit 2, like
    // --check/--lint, so CI sweeps can rely on one contract.
    if (!run.valid()) {
        std::fprintf(stderr,
                     "deployed run produced invalid outputs\n");
        return 2;
    }
    return 0;
}
