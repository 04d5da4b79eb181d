/**
 * @file
 * Synthetic memory-bound pipeline shared by the contention and
 * optimizer tests. On the bandwidth-starved contention rig the memory
 * block (m1, m2) saturates whichever link it lands on, so the
 * aggregate demand makes C6 bite; c1 is a small compute tail.
 */

#ifndef BT_TESTS_MEM_PIPELINE_HPP
#define BT_TESTS_MEM_PIPELINE_HPP

#include <string>

#include "core/application.hpp"
#include "platform/perf_model.hpp"

namespace bt::core::fixtures {

/** The pipeline with its memory traffic scaled by @p byte_scale. */
inline Application
memPipeline(const std::string& name, double byte_scale)
{
    Application app(name, "buffer", "synthetic memory-bound");
    const auto add = [&](const char* sname, double flops,
                         double bytes) {
        platform::WorkProfile w;
        w.flops = flops;
        w.bytes = bytes;
        w.parallelFraction = 1.0;
        w.pattern = platform::Pattern::Dense;
        app.addStage(Stage(sname, w, [](KernelCtx&) {}, nullptr));
    };
    add("m1", 2e5, 8e5 * byte_scale);
    add("m2", 1e5, 6e5 * byte_scale);
    add("c1", 2e5, 1e3);
    return app;
}

/** The full-traffic variant. */
inline Application
memHeavy()
{
    return memPipeline("MemHeavy", 1.0);
}

} // namespace bt::core::fixtures

#endif // BT_TESTS_MEM_PIPELINE_HPP
