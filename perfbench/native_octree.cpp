/**
 * @file
 * native_octree: core::NativeExecutor on platform::nativeHost() (soc.seed
 * = the workload seed) running the octree app (64k points, validator on)
 * under the pinned schedule {0,0,0,1,1,1,1}: the CPU team runs morton,
 * sort and unique; the SIMT chunk runs radix_tree through build_octree.
 * It exercises the kernels, the host dispatcher and the SPSC handoff; it
 * never touches the planner or the service.
 */

#include <algorithm>
#include <memory>

#include "apps/octree_app.hpp"
#include "core/native_executor.hpp"
#include "platform/devices.hpp"
#include "sched/thread_pool.hpp"
#include "workloads.hpp"

namespace bt::perfbench {

namespace {

constexpr std::int64_t kPoints = 1 << 16;
constexpr int kTasksPerRun = 32;
constexpr int kCpuStages = 3; ///< stages 0..2 on the CPU class (PU 0)

/** The deployment under test. The executor's backend keeps a reference
 *  to the SoC, so the SoC lives here, beside the executors. */
struct Native
{
    platform::SocDescription soc;
    core::Application app;
    core::Schedule schedule;
};

std::unique_ptr<Native>
makeNative(std::uint64_t seed)
{
    platform::SocDescription soc = platform::nativeHost();
    soc.seed = seed;
    return std::make_unique<Native>(Native{
        std::move(soc),
        apps::octreeApp(
            apps::OctreeConfig{.numPoints = kPoints, .withValidator = true}),
        core::Schedule::fromAssignment({0, 0, 0, 1, 1, 1, 1})});
}

runtime::RunConfig
nativeConfig(int tasks, bool trace)
{
    runtime::RunConfig cfg;
    cfg.numTasks = tasks;
    cfg.recordTrace = trace;
    return cfg;
}

/** Count one execution's tasks and validation errors. */
void
account(const runtime::RunResult& r, Outcome& out)
{
    out.attempted += r.tasks;
    out.failed += static_cast<std::int64_t>(r.validationErrors.size());
    if (!r.valid())
        out.check(false, "native run: " + r.validationErrors.front());
}

/** Per-task kernel seconds of each chunk inside the pipeline (trace). */
std::vector<double>
chunkKernelSeconds(const runtime::RunResult& r, int chunks, int warmup)
{
    std::vector<double> sum(static_cast<std::size_t>(chunks), 0.0);
    for (const auto& e : r.trace.events())
        if (e.isStage() && e.task >= warmup)
            sum[static_cast<std::size_t>(e.chunk)] += e.durationSeconds();
    for (double& s : sum)
        s /= static_cast<double>(r.tasks - warmup);
    return sum;
}

} // namespace

void
nativeOctree(const RunSpec& spec, Outcome& out)
{
    std::unique_ptr<Native> n;
    // Set-up builds the deployment and runs a short warm pipeline, so
    // first-touch page faults and lazy initialization stay out of the
    // measured runs.
    const double setup = medianSetup(9, [&] {
        n = makeNative(spec.seed);
        const core::NativeExecutor warm(n->soc, nativeConfig(4, false));
        account(warm.execute(n->app, n->schedule), out);
    });

    const core::NativeExecutor exec(n->soc,
                                    nativeConfig(kTasksPerRun, false));
    std::vector<double> tps, latencyMs;
    bool pinned = true;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < spec.seconds) {
        const runtime::RunResult r = exec.execute(n->app, n->schedule);
        account(r, out);
        tps.push_back(1.0 / r.taskIntervalSeconds);
        latencyMs.push_back(r.meanLatencySeconds * 1e3);
        pinned = pinned && r.affinityApplied;
    }

    Outcome::note("native_octree: " + std::to_string(tps.size())
                  + " runs of " + std::to_string(kTasksPerRun)
                  + " tasks, median " + std::to_string(median(tps))
                  + " tasks/s, task latency "
                  + std::to_string(median(latencyMs)) + " ms, affinity "
                  + (pinned ? "pinned" : "best effort"));

    out.metrics.add("setup_s", setup, "s");
    out.metrics.add("latency_ms", median(latencyMs), "ms");
    out.metrics.add("throughput_per_s", median(tps), "1/s");
    out.metrics.add("peak_rss_mb", peakRssMb(), "MiB");
}

void
nativeOctreeLayers(const RunSpec& spec, double seconds, Outcome& out)
{
    const auto n = makeNative(spec.seed);
    const runtime::RunConfig tracedCfg = nativeConfig(kTasksPerRun, true);
    const core::NativeExecutor traced(n->soc, tracedCfg);
    const core::NativeExecutor plain(n->soc,
                                     nativeConfig(kTasksPerRun, false));
    const int chunks = n->schedule.numChunks();

    // Pipelined runs, traced and untraced alternately.
    std::vector<double> interval, plainInterval, busy0, busy1, queueMs,
        bubble;
    std::vector<std::vector<double>> kernelSum(
        static_cast<std::size_t>(chunks));
    const auto t0 = Clock::now();
    while (secondsSince(t0) < seconds * 0.6 || interval.empty()) {
        const runtime::RunResult r = traced.execute(n->app, n->schedule);
        account(r, out);
        interval.push_back(r.taskIntervalSeconds);
        busy0.push_back(r.chunkBusyFraction.at(0));
        busy1.push_back(r.chunkBusyFraction.at(1));
        const runtime::TraceStats st = r.trace.stats();
        queueMs.push_back(st.meanQueueWaitSeconds * 1e3);
        bubble.push_back(st.bubbleFraction);
        const auto k = chunkKernelSeconds(r, chunks, tracedCfg.warmupTasks);
        for (int c = 0; c < chunks; ++c)
            kernelSum[static_cast<std::size_t>(c)].push_back(
                k[static_cast<std::size_t>(c)]);

        const runtime::RunResult p = plain.execute(n->app, n->schedule);
        account(p, out);
        plainInterval.push_back(p.taskIntervalSeconds);
    }

    // Each stage's kernel called directly on its pinned PU class: the
    // CPU stages on a team like the executor's, the SIMT stages serial
    // on the calling thread (the executor gives SIMT chunks no team).
    const platform::PuModel& cpu = n->soc.pu(0);
    sched::ThreadPool team(cpu.cores, cpu.coreIds);
    const auto task = n->app.makeTask(0, n->soc.seed);
    const int stages = n->app.numStages();
    std::vector<std::vector<double>> stageMs(
        static_cast<std::size_t>(stages));
    std::vector<double> validateMs;
    const auto tk = Clock::now();
    for (std::int64_t i = 0;
         secondsSince(tk) < seconds * 0.4 || i < 3; ++i) {
        n->app.refreshTask(*task, i, n->soc.seed);
        for (int s = 0; s < stages; ++s) {
            const bool onCpu = s < kCpuStages;
            core::KernelCtx ctx{*task, onCpu ? &team : nullptr};
            const auto t = Clock::now();
            if (onCpu)
                n->app.stage(s).runCpu(ctx);
            else
                n->app.stage(s).runGpu(ctx);
            stageMs[static_cast<std::size_t>(s)].push_back(
                secondsSince(t) * 1e3);
        }
        ++out.attempted;
        const auto tv = Clock::now();
        const std::string err = n->app.validate(*task);
        validateMs.push_back(secondsSince(tv) * 1e3);
        out.check(err.empty(), "direct kernel task: " + err);
        out.failed += err.empty() ? 0 : 1;
    }

    // Layer sum. The last chunk's dispatcher validates each finished
    // task before it pops the next, so the bottleneck's cycle is its
    // kernels as they ran in the pipeline (trace spans) plus, when it is
    // the last chunk, the validator (timed directly); what is left is
    // the handoff and the validator's own slowdown in the pipeline. The
    // kernels run slower in the pipeline than alone because the other
    // chunk's team and the spinning dispatchers share the cores: that
    // co-run stretch is reported beside the sum.
    std::vector<double> chunkDirectMs(static_cast<std::size_t>(chunks),
                                      0.0);
    for (int s = 0; s < stages; ++s)
        chunkDirectMs[s < kCpuStages ? 0 : 1]
            += median(stageMs[static_cast<std::size_t>(s)]);
    std::vector<double> kernelMs;
    for (const auto& k : kernelSum)
        kernelMs.push_back(median(k) * 1e3);
    const auto bottleneck = static_cast<std::size_t>(
        std::max_element(kernelMs.begin(), kernelMs.end())
        - kernelMs.begin());
    const double intervalMs = median(interval) * 1e3;
    const double overheadMs = intervalMs - kernelMs[bottleneck];
    const double validatorMs
        = bottleneck + 1 == kernelMs.size() ? median(validateMs) : 0.0;
    const double unaccounted
        = (intervalMs - kernelMs[bottleneck] - validatorMs) / intervalMs;
    const double stretch
        = kernelMs[bottleneck] / chunkDirectMs[bottleneck] - 1.0;
    Outcome::note(
        "layer sum native_octree: chunk " + std::to_string(bottleneck)
        + " kernels " + std::to_string(kernelMs[bottleneck])
        + " ms in the pipeline (" + std::to_string(
            chunkDirectMs[bottleneck])
        + " ms alone, co-run stretch " + std::to_string(stretch * 100.0)
        + "%) + validator " + std::to_string(validatorMs) + " ms of a "
        + std::to_string(intervalMs) + " ms interval, unaccounted "
        + std::to_string(unaccounted * 100.0) + "%"
        + (std::abs(unaccounted) <= 0.10 ? "" : "  [OVER 10%]"));

    auto& m = out.metrics;
    m.add("host.chunk_busy.c0", median(busy0), "ratio");
    m.add("host.chunk_busy.c1", median(busy1), "ratio");
    m.add("host.queue_wait_ms", median(queueMs), "ms");
    m.add("host.bubble_fraction", median(bubble), "ratio");
    m.add("host.interval_ms", intervalMs, "ms");
    m.add("host.bottleneck_kernel_ms", kernelMs[bottleneck], "ms");
    m.add("host.dispatch_overhead_ms", overheadMs, "ms");
    m.add("host.corun_stretch", stretch, "ratio");
    m.add("apps.validate_ms", median(validateMs), "ms");
    m.add("native.unaccounted_share", unaccounted, "ratio");
    m.add("native.trace_overhead",
          median(interval) / median(plainInterval) - 1.0, "ratio");
    for (int s = 0; s < stages; ++s)
        m.add("kernels." + n->app.stage(s).name() + "_ms",
              median(stageMs[static_cast<std::size_t>(s)]), "ms");
}

} // namespace bt::perfbench
