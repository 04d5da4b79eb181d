/**
 * @file
 * Quickstart: define a small custom streaming application (three image
 * stages, each with a CPU and a GPU kernel), then let bt::Framework
 * profile it, generate a pipeline schedule, autotune, and report the
 * speedup over the homogeneous baselines on a simulated Google Pixel
 * 7a - the paper's Fig. 2 flow behind one umbrella header and one
 * config object. Build and run:
 *     cmake -B build -G Ninja && cmake --build build
 *     ./build/examples/quickstart
 */

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bt.hpp"
#include "common/rng.hpp"
#include "kernels/exec.hpp"

using namespace bt;

namespace {

constexpr std::int64_t kPixels = 512 * 512;

/** Stage 1: gamma correction (dense, embarrassingly parallel). */
void
gammaStage(core::KernelCtx& ctx, bool gpu)
{
    auto img = ctx.task.view<float>("image");
    auto body = [&](std::int64_t i) {
        const float v = img[static_cast<std::size_t>(i)];
        img[static_cast<std::size_t>(i)] = v * v; // gamma 2.0
    };
    if (gpu)
        kernels::GpuExec{}.forEach(kPixels, body);
    else
        kernels::CpuExec{ctx.pool}.forEach(kPixels, body);
}

/** Stage 2: 3-tap horizontal blur (memory bound). */
void
blurStage(core::KernelCtx& ctx, bool gpu)
{
    const auto src = ctx.task.view<const float>("image");
    auto dst = ctx.task.view<float>("blurred");
    auto body = [&](std::int64_t i) {
        const auto u = static_cast<std::size_t>(i);
        float acc = src[u];
        if (i > 0)
            acc += src[u - 1];
        if (i + 1 < kPixels)
            acc += src[u + 1];
        dst[u] = acc / 3.0f;
    };
    if (gpu)
        kernels::GpuExec{}.forEach(kPixels, body);
    else
        kernels::CpuExec{ctx.pool}.forEach(kPixels, body);
}

/** Stage 3: histogram (irregular scatter - GPUs hate this). */
void
histogramStage(core::KernelCtx& ctx, bool gpu)
{
    const auto src = ctx.task.view<const float>("blurred");
    auto hist = ctx.task.view<std::uint32_t>("histogram");
    std::fill(hist.begin(), hist.end(), 0u);
    auto body = [&](std::int64_t i) {
        const float v = src[static_cast<std::size_t>(i)];
        const auto bin = static_cast<std::size_t>(
            std::min(255.0f, std::max(0.0f, v * 255.0f)));
        // Sequential SIMT execution makes this increment safe on the
        // emulated device; the CPU path runs it serially per block.
        ++hist[bin];
    };
    // Scatter with conflicts: keep it serial per backend for clarity.
    (void)gpu;
    for (std::int64_t i = 0; i < kPixels; ++i)
        body(i);
    (void)ctx;
}

core::Application
makeApp()
{
    core::Application app("ImagePipe", "Image", "Demo");

    // Each TaskObject buffer is declared once: makeTask allocates it
    // at this size, and the Framework lints the declarations and the
    // stages' IO before profiling anything.
    const auto imageBytes
        = static_cast<std::int64_t>(kPixels * sizeof(float));
    app.declareBuffer({"image", imageBytes, /*input=*/true});
    app.declareBuffer({"blurred", imageBytes});
    app.declareBuffer(
        {"histogram",
         static_cast<std::int64_t>(256 * sizeof(std::uint32_t)), false,
         /*output=*/true});

    platform::WorkProfile gamma{2.0 * kPixels, 8.0 * kPixels, 0.999,
                                platform::Pattern::Dense};
    platform::WorkProfile blur{4.0 * kPixels, 12.0 * kPixels, 0.99,
                               platform::Pattern::Dense};
    platform::WorkProfile hist{3.0 * kPixels, 8.0 * kPixels, 0.2,
                               platform::Pattern::Irregular};

    core::Stage gamma_stage(
        "gamma", gamma,
        [](core::KernelCtx& c) { gammaStage(c, false); },
        [](core::KernelCtx& c) { gammaStage(c, true); });
    gamma_stage.setIo({{"image"}, {"image"}});
    app.addStage(std::move(gamma_stage));
    core::Stage blur_stage(
        "blur", blur, [](core::KernelCtx& c) { blurStage(c, false); },
        [](core::KernelCtx& c) { blurStage(c, true); });
    blur_stage.setIo({{"image"}, {"blurred"}});
    app.addStage(std::move(blur_stage));
    core::Stage hist_stage(
        "histogram", hist,
        [](core::KernelCtx& c) { histogramStage(c, false); },
        [](core::KernelCtx& c) { histogramStage(c, true); });
    hist_stage.setIo({{"blurred"}, {"histogram"}});
    app.addStage(std::move(hist_stage));

    app.setTaskInput([](core::TaskObject& task, std::int64_t index,
                        std::uint64_t seed) {
        Rng rng(hashCombine(seed, static_cast<std::uint64_t>(index)));
        for (auto& px : task.view<float>("image"))
            px = static_cast<float>(rng.nextDouble());
    });
    return app;
}

} // namespace

int
main()
{
    std::printf("BetterTogether quickstart: 3-stage image pipeline on "
                "a simulated Pixel 7a\n\n");

    const auto soc = platform::pixel7a();
    const auto app = makeApp();

    // One config drives the whole flow; per-component knobs (profiler
    // repetitions, optimizer candidate count, deployment fault plan)
    // all hang off it.
    FrameworkConfig cfg;
    cfg.run.numTasks = 30;

    const Framework framework(soc, cfg);
    const auto report = framework.run(app);

    std::printf("Interference-aware profiling table (ms):\n");
    report.profile.interference.print(std::cout);

    std::vector<std::string> names;
    for (const auto& s : app.stages())
        names.push_back(s.name());
    std::printf("\nBest schedule: %s\n",
                report.bestSchedule.toString(soc, names).c_str());
    std::printf("BetterTogether latency: %.3f ms/task\n",
                report.bestLatencySeconds * 1e3);
    std::printf("CPU-only baseline:      %.3f ms/task (%s)\n",
                report.cpuBaselineSeconds * 1e3,
                soc.pu(report.cpuBaselinePu).label.c_str());
    std::printf("GPU-only baseline:      %.3f ms/task\n",
                report.gpuBaselineSeconds * 1e3);
    std::printf("Speedup over best homogeneous: %.2fx\n",
                report.speedupOverBestBaseline());
    return 0;
}
