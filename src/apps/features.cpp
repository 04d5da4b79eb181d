#include "apps/features.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "apps/app_exec.hpp"
#include "kernels/image.hpp"
#include "kernels/prefix_sum.hpp"

namespace bt::apps {

namespace {

using kernels::ImageShape;
using platform::Pattern;
using platform::WorkProfile;

/**
 * Synthetic input: a handful of bright Gaussian blobs over a gradient
 * background, so Harris finds a stable population of corners.
 */
void
fillImage(core::TaskObject& task, const ImageShape& shape,
          std::int64_t task_index, std::uint64_t seed)
{
    auto img = task.view<float>("image");
    Rng rng(hashCombine(seed ^ 0xfea7, static_cast<std::uint64_t>(
        task_index)));
    for (int y = 0; y < shape.h; ++y)
        for (int x = 0; x < shape.w; ++x)
            img[static_cast<std::size_t>(y) * shape.w + x]
                = 0.1f
                + 0.1f * static_cast<float>(x + y)
                    / static_cast<float>(shape.w + shape.h);
    const int blobs = 24;
    for (int b = 0; b < blobs; ++b) {
        const int cx = 8 + static_cast<int>(rng.nextBounded(
            static_cast<std::uint64_t>(shape.w - 16)));
        const int cy = 8 + static_cast<int>(rng.nextBounded(
            static_cast<std::uint64_t>(shape.h - 16)));
        const float amp = static_cast<float>(rng.nextRange(0.4, 0.9));
        for (int dy = -4; dy <= 4; ++dy) {
            for (int dx = -4; dx <= 4; ++dx) {
                const float r2 = static_cast<float>(dx * dx + dy * dy);
                img[static_cast<std::size_t>(cy + dy) * shape.w + cx
                    + dx] += amp * std::exp(-r2 / 4.0f);
            }
        }
    }
}

/** Compaction shared by both backends: scan flags, scatter indices. */
template <typename ScanFn>
void
compactCorners(core::TaskObject& task, const ImageShape& shape,
               const ScanFn& scan, const kernels::CpuExec* cpu_exec)
{
    const auto flags = task.view<const std::uint32_t>("flags")
                           .subspan(0, static_cast<std::size_t>(
                                           shape.pixels()));
    auto offsets = task.view<std::uint32_t>("offsets");
    const std::uint64_t count = scan(flags, offsets);
    auto corners = task.view<std::uint32_t>("corners");
    auto scatter = [&](std::int64_t i) {
        if (flags[static_cast<std::size_t>(i)])
            corners[offsets[static_cast<std::size_t>(i)]]
                = static_cast<std::uint32_t>(i);
    };
    if (cpu_exec)
        cpu_exec->forEach(shape.pixels(), scatter);
    else
        kernels::GpuExec{}.forEach(shape.pixels(), scatter);
    task.setScalar("corner_count", static_cast<std::int64_t>(count));
}

WorkProfile
profileOf(const std::string& s, double px)
{
    WorkProfile w;
    if (s == "blur_h" || s == "blur_v") {
        w = {10.0 * px, 8.0 * px, 0.999, Pattern::Dense};
    } else if (s == "sobel") {
        w = {20.0 * px, 12.0 * px, 0.999, Pattern::Dense};
    } else if (s == "harris") {
        w = {40.0 * px, 12.0 * px, 0.99, Pattern::Mixed};
    } else if (s == "nms") {
        // Divergent early-out comparisons.
        w = {12.0 * px, 8.0 * px, 0.98, Pattern::Irregular};
    } else if (s == "compact") {
        w = {6.0 * px, 16.0 * px, 0.85, Pattern::Sparse};
    } else if (s == "brief") {
        // ~0.5% corner density, 512 clamped gathers per corner.
        w = {3.0 * px, 10.0 * px, 0.95, Pattern::Irregular};
    } else {
        BT_PANIC("app.unknown_stage", "unknown features stage ", s);
    }
    return w;
}

} // namespace

core::Application
featuresApp(FeaturesConfig cfg)
{
    BT_ASSERT(cfg.width >= 32 && cfg.height >= 32);
    const ImageShape shape{cfg.width, cfg.height};
    const double px = static_cast<double>(shape.pixels());
    const float threshold = cfg.threshold;

    core::Application app("FeatureExtract", "Image",
                          "Stencils, divergence & gathers");

    // TaskObject layout: the image, its five float stencil planes, the
    // per-pixel flags/offsets/corners and the descriptor store. NMS
    // admits at most one corner per 2x2 block (strict 3x3 dominance),
    // so px/4 corners bound the descriptor store; keep a 2x margin.
    const auto floatPlane
        = shape.pixels() * static_cast<std::int64_t>(sizeof(float));
    const auto wordPlane = shape.pixels()
        * static_cast<std::int64_t>(sizeof(std::uint32_t));
    app.declareBuffer({"image", floatPlane, /*input=*/true});
    for (const char* name : {"blur_tmp", "blurred", "gx", "gy", "response"})
        app.declareBuffer({name, floatPlane});
    app.declareBuffer({"flags", wordPlane, false, /*output=*/true});
    app.declareBuffer({"offsets", wordPlane, false, false,
                       /*scratch=*/true});
    app.declareBuffer({"corners", wordPlane, false, /*output=*/true});
    app.declareBuffer({"descriptors",
                       shape.pixels() / 2 * kernels::kDescriptorWords
                           * static_cast<std::int64_t>(
                               sizeof(std::uint32_t)),
                       false, /*output=*/true});

    auto addStage = [&](const std::string& name, core::StageIo io,
                        auto cpu, auto gpu) {
        core::Stage stage(name, profileOf(name, px), std::move(cpu),
                          std::move(gpu));
        stage.setIo(std::move(io));
        app.addStage(std::move(stage));
    };

    addStage(
        "blur_h", {{"image"}, {"blur_tmp"}},
        [shape](core::KernelCtx& ctx) {
            kernels::blurHCpu(hostExec(ctx), shape,
                              ctx.task.view<const float>("image"),
                              ctx.task.view<float>("blur_tmp"));
        },
        [shape](core::KernelCtx& ctx) {
            kernels::blurHGpu(deviceExec(ctx), shape,
                              ctx.task.view<const float>("image"),
                              ctx.task.view<float>("blur_tmp"));
        });
    addStage(
        "blur_v", {{"blur_tmp"}, {"blurred"}},
        [shape](core::KernelCtx& ctx) {
            kernels::blurVCpu(hostExec(ctx), shape,
                              ctx.task.view<const float>("blur_tmp"),
                              ctx.task.view<float>("blurred"));
        },
        [shape](core::KernelCtx& ctx) {
            kernels::blurVGpu(deviceExec(ctx), shape,
                              ctx.task.view<const float>("blur_tmp"),
                              ctx.task.view<float>("blurred"));
        });
    addStage(
        "sobel", {{"blurred"}, {"gx", "gy"}},
        [shape](core::KernelCtx& ctx) {
            kernels::sobelCpu(hostExec(ctx), shape,
                              ctx.task.view<const float>("blurred"),
                              ctx.task.view<float>("gx"),
                              ctx.task.view<float>("gy"));
        },
        [shape](core::KernelCtx& ctx) {
            kernels::sobelGpu(deviceExec(ctx), shape,
                              ctx.task.view<const float>("blurred"),
                              ctx.task.view<float>("gx"),
                              ctx.task.view<float>("gy"));
        });
    addStage(
        "harris", {{"gx", "gy"}, {"response"}},
        [shape](core::KernelCtx& ctx) {
            kernels::harrisCpu(hostExec(ctx), shape,
                               ctx.task.view<const float>("gx"),
                               ctx.task.view<const float>("gy"),
                               ctx.task.view<float>("response"));
        },
        [shape](core::KernelCtx& ctx) {
            kernels::harrisGpu(deviceExec(ctx), shape,
                               ctx.task.view<const float>("gx"),
                               ctx.task.view<const float>("gy"),
                               ctx.task.view<float>("response"));
        });
    addStage(
        "nms", {{"response"}, {"flags"}},
        [shape, threshold](core::KernelCtx& ctx) {
            kernels::nmsCpu(hostExec(ctx), shape,
                            ctx.task.view<const float>("response"),
                            threshold,
                            ctx.task.view<std::uint32_t>("flags"));
        },
        [shape, threshold](core::KernelCtx& ctx) {
            kernels::nmsGpu(deviceExec(ctx), shape,
                            ctx.task.view<const float>("response"),
                            threshold,
                            ctx.task.view<std::uint32_t>("flags"));
        });
    addStage(
        "compact", {{"flags"}, {"offsets", "corners"}},
        [shape](core::KernelCtx& ctx) {
            const kernels::CpuExec exec{ctx.pool};
            compactCorners(
                ctx.task, shape,
                [&](std::span<const std::uint32_t> in,
                    std::span<std::uint32_t> out) {
                    return kernels::exclusiveScanCpu(exec, in, out);
                },
                &exec);
        },
        [shape](core::KernelCtx& ctx) {
            compactCorners(
                ctx.task, shape,
                [&](std::span<const std::uint32_t> in,
                    std::span<std::uint32_t> out) {
                    return kernels::exclusiveScanGpu(in, out,
                                                     ctx.observer);
                },
                nullptr);
        });
    addStage(
        "brief", {{"blurred", "corners"}, {"descriptors"}},
        [shape](core::KernelCtx& ctx) {
            const std::int64_t n = ctx.task.scalar("corner_count");
            kernels::briefCpu(
                hostExec(ctx), shape,
                ctx.task.view<const float>("blurred"),
                ctx.task.view<const std::uint32_t>("corners"), n,
                ctx.task.view<std::uint32_t>("descriptors"));
        },
        [shape](core::KernelCtx& ctx) {
            const std::int64_t n = ctx.task.scalar("corner_count");
            kernels::briefGpu(
                deviceExec(ctx), shape,
                ctx.task.view<const float>("blurred"),
                ctx.task.view<const std::uint32_t>("corners"), n,
                ctx.task.view<std::uint32_t>("descriptors"));
        });

    app.setTaskInput([shape](core::TaskObject& task,
                             std::int64_t task_index, std::uint64_t seed) {
        fillImage(task, shape, task_index, seed);
    });

    if (cfg.withValidator) {
        app.setValidator([shape, threshold](
                             const core::TaskObject& task)
                             -> std::string {
            auto& t = const_cast<core::TaskObject&>(task);
            const auto px_count
                = static_cast<std::size_t>(shape.pixels());
            std::vector<float> tmp(px_count), blurred(px_count),
                gx(px_count), gy(px_count), response(px_count);
            kernels::blurHReference(shape, t.view<const float>(
                                               "image"),
                                    tmp);
            kernels::blurVReference(shape, tmp, blurred);
            kernels::sobelReference(shape, blurred, gx, gy);
            kernels::harrisReference(shape, gx, gy, response);
            std::vector<std::uint32_t> flags(px_count);
            kernels::nmsReference(shape, response, threshold, flags);

            const auto got_flags
                = t.view<const std::uint32_t>("flags");
            std::int64_t expect_count = 0;
            for (std::size_t i = 0; i < px_count; ++i) {
                if (got_flags[i] != flags[i])
                    return "nms flag mismatch at pixel "
                        + std::to_string(i);
                expect_count += flags[i];
            }
            if (expect_count == 0)
                return "degenerate input: no corners found";
            if (t.scalar("corner_count") != expect_count)
                return "corner count mismatch";

            // Corners are the flagged pixels in scan order; verify a
            // sample of descriptors against the reference kernel.
            const auto corners
                = t.view<const std::uint32_t>("corners");
            const auto descs
                = t.view<const std::uint32_t>("descriptors");
            std::vector<std::uint32_t> want(
                kernels::kDescriptorWords);
            for (std::int64_t c = 0; c < expect_count;
                 c += std::max<std::int64_t>(1, expect_count / 7)) {
                if (!flags[corners[static_cast<std::size_t>(c)]])
                    return "corner index not flagged";
                kernels::briefCpu(
                    kernels::CpuExec{nullptr}, shape, blurred,
                    corners.subspan(static_cast<std::size_t>(c), 1), 1,
                    want);
                for (int wrd = 0; wrd < kernels::kDescriptorWords;
                     ++wrd)
                    if (descs[static_cast<std::size_t>(
                            c * kernels::kDescriptorWords + wrd)]
                        != want[static_cast<std::size_t>(wrd)])
                        return "descriptor mismatch at corner "
                            + std::to_string(c);
            }
            return "";
        });
    }
    return app;
}

} // namespace bt::apps
