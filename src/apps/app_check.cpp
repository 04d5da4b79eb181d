#include "apps/app_check.hpp"

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "common/logging.hpp"

namespace bt::apps {

check::Report
checkApplication(const core::Application& app)
{
    check::Checker checker;
    const auto task = app.makeTask(0, /*seed=*/1);
    {
        const check::ContextScope app_scope(checker, app.name());
        core::KernelCtx ctx{*task, nullptr, &checker};
        for (const auto& stage : app.stages()) {
            const check::ContextScope stage_scope(checker,
                                                  stage.name());
            stage.runGpu(ctx);
        }
    }
    const std::string err = app.validate(*task);
    if (!err.empty())
        checker.addValidationFailure(app.name(), err);
    return checker.takeReport();
}

check::Report
checkScaledApp(std::string_view name)
{
    if (name == "dense") {
        return checkApplication(
            alexnetDense({.batch = 1, .withValidator = true}));
    }
    if (name == "sparse") {
        return checkApplication(alexnetSparse({.batch = 2,
                                               .sparse = true,
                                               .density = 0.05,
                                               .withValidator = true}));
    }
    if (name == "octree") {
        OctreeConfig cfg;
        cfg.numPoints = 1 << 12;
        cfg.distribution = PointDistribution::Clustered;
        cfg.withValidator = true;
        return checkApplication(octreeApp(cfg));
    }
    BT_PANIC("app.unknown", "unknown app for checked run: ", name);
}

} // namespace bt::apps
