/**
 * @file
 * Tests for the image kernels behind the feature-extraction case
 * study: blur separability and normalization, Sobel gradients, Harris
 * response properties, NMS semantics, BRIEF determinism - references
 * vs both backends, plus end-to-end pipeline validation through the
 * executors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "apps/features.hpp"
#include "common/rng.hpp"
#include "core/native_executor.hpp"
#include "core/sim_executor.hpp"
#include "kernels/image.hpp"
#include "platform/devices.hpp"
#include "sched/thread_pool.hpp"

namespace bt::kernels {
namespace {

std::vector<float>
randomImage(const ImageShape& s, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> img(static_cast<std::size_t>(s.pixels()));
    for (auto& p : img)
        p = static_cast<float>(rng.nextDouble());
    return img;
}

void
expectNear(std::span<const float> a, std::span<const float> b,
           float tol = 1e-5f)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(a[i], b[i], tol) << "at " << i;
}

TEST(Blur, PreservesConstantImages)
{
    const ImageShape s{16, 12};
    std::vector<float> in(static_cast<std::size_t>(s.pixels()), 0.5f);
    std::vector<float> out(in.size());
    blurHReference(s, in, out);
    for (float v : out)
        EXPECT_NEAR(v, 0.5f, 1e-6f);
    blurVReference(s, in, out);
    for (float v : out)
        EXPECT_NEAR(v, 0.5f, 1e-6f);
}

TEST(Blur, BackendsMatchReference)
{
    const ImageShape s{33, 21};
    const auto in = randomImage(s, 1);
    std::vector<float> want(in.size()), cpu(in.size()), gpu(in.size());
    sched::ThreadPool pool(3);
    blurHReference(s, in, want);
    blurHCpu(CpuExec{&pool}, s, in, cpu);
    blurHGpu(GpuExec{}, s, in, gpu);
    expectNear(cpu, want, 0.0f);
    expectNear(gpu, want, 0.0f);

    blurVReference(s, in, want);
    blurVCpu(CpuExec{&pool}, s, in, cpu);
    blurVGpu(GpuExec{}, s, in, gpu);
    expectNear(cpu, want, 0.0f);
    expectNear(gpu, want, 0.0f);
}

TEST(Blur, SmoothsHighFrequency)
{
    // A checkerboard's variance must shrink under the binomial blur.
    const ImageShape s{32, 32};
    std::vector<float> in(static_cast<std::size_t>(s.pixels()));
    for (int y = 0; y < s.h; ++y)
        for (int x = 0; x < s.w; ++x)
            in[static_cast<std::size_t>(y * s.w + x)]
                = static_cast<float>((x + y) % 2);
    std::vector<float> tmp(in.size()), out(in.size());
    blurHReference(s, in, tmp);
    blurVReference(s, tmp, out);

    auto variance = [](std::span<const float> v) {
        double m = 0.0;
        for (float x : v)
            m += x;
        m /= static_cast<double>(v.size());
        double acc = 0.0;
        for (float x : v)
            acc += (x - m) * (x - m);
        return acc / static_cast<double>(v.size());
    };
    EXPECT_LT(variance(out), variance(in) * 0.25);
}

TEST(Sobel, FlatImageHasZeroGradient)
{
    const ImageShape s{8, 8};
    std::vector<float> in(64, 0.3f), gx(64), gy(64);
    sobelReference(s, in, gx, gy);
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_FLOAT_EQ(gx[i], 0.0f);
        EXPECT_FLOAT_EQ(gy[i], 0.0f);
    }
}

TEST(Sobel, HorizontalRampHasPureGx)
{
    const ImageShape s{8, 8};
    std::vector<float> in(64), gx(64), gy(64);
    for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
            in[static_cast<std::size_t>(y * 8 + x)]
                = static_cast<float>(x);
    sobelReference(s, in, gx, gy);
    // Interior: gx = 8 (Sobel weight sum), gy = 0.
    EXPECT_FLOAT_EQ(gx[3 * 8 + 3], 8.0f);
    EXPECT_FLOAT_EQ(gy[3 * 8 + 3], 0.0f);
}

TEST(Sobel, BackendsMatchReference)
{
    const ImageShape s{25, 17};
    const auto in = randomImage(s, 2);
    std::vector<float> wx(in.size()), wy(in.size());
    std::vector<float> cx(in.size()), cy(in.size());
    std::vector<float> gxv(in.size()), gyv(in.size());
    sobelReference(s, in, wx, wy);
    sched::ThreadPool pool(2);
    sobelCpu(CpuExec{&pool}, s, in, cx, cy);
    sobelGpu(GpuExec{}, s, in, gxv, gyv);
    expectNear(cx, wx, 0.0f);
    expectNear(cy, wy, 0.0f);
    expectNear(gxv, wx, 0.0f);
    expectNear(gyv, wy, 0.0f);
}

TEST(Harris, CornerScoresHigherThanEdge)
{
    // A bright quadrant produces a corner at its inner vertex; compare
    // the response there against a point on one of its straight edges.
    const ImageShape s{32, 32};
    std::vector<float> in(static_cast<std::size_t>(s.pixels()), 0.0f);
    for (int y = 16; y < 32; ++y)
        for (int x = 16; x < 32; ++x)
            in[static_cast<std::size_t>(y * s.w + x)] = 1.0f;
    std::vector<float> gx(in.size()), gy(in.size()),
        resp(in.size());
    sobelReference(s, in, gx, gy);
    harrisReference(s, gx, gy, resp);
    const float corner = resp[static_cast<std::size_t>(16 * 32 + 16)];
    const float edge = resp[static_cast<std::size_t>(16 * 32 + 26)];
    EXPECT_GT(corner, edge);
    EXPECT_GT(corner, 0.0f);
}

TEST(Harris, BackendsMatchReference)
{
    const ImageShape s{19, 23};
    const auto in = randomImage(s, 3);
    std::vector<float> gx(in.size()), gy(in.size());
    sobelReference(s, in, gx, gy);
    std::vector<float> want(in.size()), cpu(in.size()),
        gpu(in.size());
    harrisReference(s, gx, gy, want);
    sched::ThreadPool pool(2);
    harrisCpu(CpuExec{&pool}, s, gx, gy, cpu);
    harrisGpu(GpuExec{}, s, gx, gy, gpu);
    expectNear(cpu, want, 0.0f);
    expectNear(gpu, want, 0.0f);
}

TEST(Nms, SingleGlobalMaximumSurvives)
{
    const ImageShape s{9, 9};
    std::vector<float> resp(81, 0.0f);
    resp[4 * 9 + 4] = 1.0f;
    std::vector<std::uint32_t> flags(81);
    nmsReference(s, resp, 0.1f, flags);
    EXPECT_EQ(std::accumulate(flags.begin(), flags.end(), 0u), 1u);
    EXPECT_EQ(flags[4 * 9 + 4], 1u);
}

TEST(Nms, BorderNeverQualifies)
{
    const ImageShape s{5, 5};
    std::vector<float> resp(25, 0.0f);
    resp[0] = 10.0f; // corner pixel of the image
    std::vector<std::uint32_t> flags(25);
    nmsReference(s, resp, 0.1f, flags);
    EXPECT_EQ(std::accumulate(flags.begin(), flags.end(), 0u), 0u);
}

TEST(Nms, ThresholdFilters)
{
    const ImageShape s{9, 9};
    std::vector<float> resp(81, 0.0f);
    resp[4 * 9 + 4] = 0.05f;
    std::vector<std::uint32_t> flags(81);
    nmsReference(s, resp, 0.1f, flags);
    EXPECT_EQ(std::accumulate(flags.begin(), flags.end(), 0u), 0u);
}

TEST(Nms, BackendsMatchReference)
{
    const ImageShape s{40, 30};
    const auto in = randomImage(s, 4);
    std::vector<std::uint32_t> want(in.size()), cpu(in.size()),
        gpu(in.size());
    nmsReference(s, in, 0.5f, want);
    sched::ThreadPool pool(3);
    nmsCpu(CpuExec{&pool}, s, in, 0.5f, cpu);
    nmsGpu(GpuExec{}, s, in, 0.5f, gpu);
    EXPECT_EQ(cpu, want);
    EXPECT_EQ(gpu, want);
}

TEST(Brief, DeterministicAndBackendsAgree)
{
    const ImageShape s{64, 64};
    const auto img = randomImage(s, 5);
    std::vector<std::uint32_t> corners{64 * 10 + 12, 64 * 30 + 40,
                                       64 * 50 + 5};
    std::vector<std::uint32_t> a(corners.size() * kDescriptorWords);
    std::vector<std::uint32_t> b(a.size());
    sched::ThreadPool pool(2);
    briefCpu(CpuExec{&pool}, s, img, corners,
             static_cast<std::int64_t>(corners.size()), a);
    briefGpu(GpuExec{}, s, img, corners,
             static_cast<std::int64_t>(corners.size()), b);
    EXPECT_EQ(a, b);

    // Distinct corners on a random image should produce distinct
    // descriptors.
    EXPECT_NE(std::vector<std::uint32_t>(a.begin(),
                                         a.begin() + kDescriptorWords),
              std::vector<std::uint32_t>(
                  a.begin() + kDescriptorWords,
                  a.begin() + 2 * kDescriptorWords));
}

TEST(FeaturesApp, SevenStagesWithExpectedNames)
{
    const auto app = apps::featuresApp();
    ASSERT_EQ(app.numStages(), 7);
    const std::vector<std::string> expect{"blur_h", "blur_v", "sobel",
                                          "harris", "nms", "compact",
                                          "brief"};
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(app.stage(i).name(),
                  expect[static_cast<std::size_t>(i)]);
}

class FeaturesSchedules : public ::testing::TestWithParam<const char*>
{
};

TEST_P(FeaturesSchedules, PipelineValidatesUnderAnyChunking)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    auto app = apps::featuresApp(apps::FeaturesConfig{
        .width = 96, .height = 64, .withValidator = true});

    std::vector<int> assign;
    for (const char* c = GetParam(); *c; ++c)
        assign.push_back(*c - '0');
    ASSERT_EQ(assign.size(), 7u);

    runtime::RunConfig cfg;
    cfg.numTasks = 3;
    cfg.runKernels = true;
    const core::SimExecutor exec(model, cfg);
    const auto result
        = exec.execute(app, core::Schedule::fromAssignment(assign));
    EXPECT_TRUE(result.valid())
        << (result.validationErrors.empty()
                ? ""
                : result.validationErrors.front());
}

INSTANTIATE_TEST_SUITE_P(Chunkings, FeaturesSchedules,
                         ::testing::Values("0000000", "3333333",
                                           "0001233", "3332211"));

TEST(FeaturesApp, NativePipelineRuns)
{
    const auto soc = platform::nativeHost();
    auto app = apps::featuresApp(apps::FeaturesConfig{
        .width = 96, .height = 64, .withValidator = true});
    runtime::RunConfig cfg;
    cfg.numTasks = 3;
    const core::NativeExecutor exec(soc, cfg);
    const auto result = exec.execute(
        app, core::Schedule::fromAssignment({0, 0, 0, 0, 1, 1, 1}));
    EXPECT_TRUE(result.valid())
        << (result.validationErrors.empty()
                ? ""
                : result.validationErrors.front());
}

} // namespace
} // namespace bt::kernels
