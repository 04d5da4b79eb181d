/**
 * @file
 * Host-backend tests that assert on wall-clock time ratios. ctest runs
 * this binary's tests alone (RUN_SERIAL, see CMakeLists.txt): the rest
 * of the suite running beside them on the same cores would skew the
 * ratios they measure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/application.hpp"
#include "platform/devices.hpp"
#include "platform/perf_model.hpp"
#include "runtime/host_backend.hpp"

namespace bt::core {
namespace {

// A host-executable memory-bound pipeline: real kernels over a real
// buffer, heavy enough that wall-clock stage times dwarf timer noise.

constexpr int kHostElems = 1 << 15;

Application
hostMemApp()
{
    Application app("HostMem", "buffer", "host memory-bound");
    platform::WorkProfile w;
    w.flops = 2e5;
    w.bytes = 6e5;
    w.parallelFraction = 1.0;
    w.pattern = platform::Pattern::Dense;
    const auto kernel = [](KernelCtx& ctx) {
        auto data = ctx.task.view<std::uint32_t>("data");
        for (int pass = 0; pass < 6; ++pass)
            for (auto& x : data)
                x = x * 2654435761u + 17u;
    };
    app.addStage(Stage("ka", w, kernel, nullptr));
    app.addStage(Stage("kb", w, kernel, nullptr));
    app.addStage(Stage("kc", w, kernel, nullptr));
    app.declareBuffer(
        {"data", kHostElems * sizeof(std::uint32_t), /*input=*/true});
    app.setTaskInput(
        [](TaskObject& obj, std::int64_t task, std::uint64_t) {
            auto data = obj.view<std::uint32_t>("data");
            for (int i = 0; i < kHostElems; ++i)
                data[static_cast<std::size_t>(i)]
                    = static_cast<std::uint32_t>(task + i);
        });
    return app;
}

TEST(HostBackendContention, AmbientStretchTracksTheModel)
{
    const auto soc = platform::contentionRig();
    const platform::PerfModel model(soc);
    const auto app = hostMemApp();
    const auto schedule = Schedule::fromAssignment({0, 0, 0});

    const double ambient = 10.0;
    const auto& w = app.stage(0).work();
    const double expected
        = model.interferenceHeavyTime(w, 0, ambient)
        / model.interferenceHeavyTime(w, 0);
    ASSERT_GT(expected, 1.05); // the fixture must actually stretch

    runtime::RunConfig quiet;
    quiet.numTasks = 12;
    quiet.recordTrace = false;
    runtime::RunConfig loud = quiet;
    loud.ambientBandwidthGbps = ambient;

    // Wall-clock timing is noisy: load spikes inflate single runs, and
    // now and then a run lands on an idle core and finishes early. So
    // run the two configurations back to back, alternating which goes
    // first, so that each pair sees the same conditions, and take the
    // median of the paired ratios, which neither kind of outlier moves.
    // Assert direction and rough magnitude of the injected slowdown
    // rather than a tight equality.
    const runtime::HostTimeBackend backend(soc);
    std::vector<double> ratios;
    for (int rep = 0; rep < 9; ++rep) {
        std::array<double, 2> makespan{}; // quiet, loud
        for (const int k : {rep % 2, 1 - rep % 2}) {
            const auto run
                = backend.run(app, schedule, k == 1 ? loud : quiet);
            EXPECT_TRUE(run.validationErrors.empty());
            makespan[static_cast<std::size_t>(k)] = run.makespanSeconds;
        }
        ratios.push_back(makespan[1] / makespan[0]);
    }
    const auto mid = ratios.begin() + 4;
    std::nth_element(ratios.begin(), mid, ratios.end());
    const double ratio = *mid;
    EXPECT_GT(ratio, 1.0 + 0.3 * (expected - 1.0));
    EXPECT_LT(ratio, 1.0 + 4.0 * (expected - 1.0));
}

} // namespace
} // namespace bt::core
