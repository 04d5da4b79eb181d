/**
 * @file
 * bt_perfbench: the outside-in benchmark program.
 *
 *   bt_perfbench --workload plan_flow|serve_mixed|native_octree
 *                --seed N --seconds S --trace 0|1 [--root DIR] [--rev REV]
 *
 * --trace 0 measures the workload's end-to-end metrics with no spans.
 * --trace 1 is the per-layer census: every layer's public entry point is
 * called directly and timed, the workload's own layers with half of the
 * time budget and the other two workloads' layers with a quarter each,
 * so every per-layer metric is measured in every traced run. Both print
 * a stamp line first and the result object as the last line of stdout.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flags.hpp"
#include "common/simd.hpp"
#include "kernels/simd_ops.hpp"
#include "sched/affinity.hpp"
#include "workloads.hpp"

namespace bt::perfbench {

void
Outcome::check(bool ok, const std::string& what)
{
    if (ok)
        return;
    problems.push_back(what);
    std::printf("CHECK FAILED: %s\n", what.c_str());
}

void
Outcome::note(const std::string& line)
{
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

namespace {

struct Workload
{
    const char* name;
    void (*run)(const RunSpec&, Outcome&);
    void (*layers)(const RunSpec&, double, Outcome&);
};

constexpr Workload kWorkloads[] = {
    {"plan_flow", planFlow, planFlowLayers},
    {"serve_mixed", serveMixed, serveMixedLayers},
    {"native_octree", nativeOctree, nativeOctreeLayers},
};

bool
optimizedBuild()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    const std::string type = BT_PERFBENCH_BUILD_TYPE;
    return type == "Release" || type == "RelWithDebInfo";
#else
    return false;
#endif
}

} // namespace

} // namespace bt::perfbench

int
main(int argc, char** argv)
{
    using namespace bt::perfbench;

    RunSpec spec;
    std::string seed = "0";
    int trace = 0;
    std::string rev = "unknown";
    bt::FlagSet flags("bt_perfbench");
    flags.value("--workload", &spec.workload, "NAME",
                "plan_flow, serve_mixed or native_octree");
    flags.value("--seed", &seed, "N", "workload seed (inputs and mix)");
    flags.value("--seconds", &spec.seconds, "S", "measured time");
    flags.value("--trace", &trace, "0|1", "1 = per-layer census");
    flags.value("--root", &spec.root, "DIR", "checkout root");
    flags.value("--rev", &rev, "REV", "source revision for the stamp");
    if (!flags.parse(argc, argv))
        return 2;
    char* end = nullptr;
    spec.seed = std::strtoull(seed.c_str(), &end, 10);
    spec.trace = trace != 0;
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads)
        if (spec.workload == w.name)
            workload = &w;
    if (workload == nullptr || *end != '\0' || spec.seconds <= 0.0) {
        std::fprintf(stderr, "bt_perfbench: bad --workload, --seed or "
                             "--seconds\n");
        flags.usage();
        return 2;
    }
    if (!optimizedBuild()) {
        std::fprintf(stderr, "bt_perfbench: refusing to measure a %s "
                             "build; configure with "
                             "-DCMAKE_BUILD_TYPE=Release\n",
                     BT_PERFBENCH_BUILD_TYPE);
        return 3;
    }

    const bt::kernels::SimdTier tier = bt::kernels::simdTier();
    std::printf("# stamp {\"rev\": \"%s\", \"nproc\": %d, \"simd\": \"%s\", "
                "\"build\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d}\n",
                rev.c_str(), bt::sched::onlineCoreCount(),
                bt::simd::isaName(tier.isa), BT_PERFBENCH_BUILD_TYPE,
                spec.workload.c_str(),
                static_cast<unsigned long long>(spec.seed), spec.seconds,
                trace);
    std::fflush(stdout);

    Outcome out;
    if (!spec.trace) {
        workload->run(spec, out);
    } else {
        for (const Workload& w : kWorkloads)
            w.layers(spec, spec.seconds * (&w == workload ? 0.5 : 0.25),
                     out);
    }

    const bool correct = out.problems.empty() && out.failed == 0;
    Outcome::note("failed_share " + std::to_string(
                      static_cast<double>(out.failed)
                      / static_cast<double>(out.attempted))
                  + " (" + std::to_string(out.failed) + " of "
                  + std::to_string(out.attempted) + "), "
                  + std::to_string(out.problems.size())
                  + " failed checks");
    std::printf("%s\n",
                out.metrics.resultJson(correct, out.attempted, out.failed)
                    .c_str());
    return 0;
}
