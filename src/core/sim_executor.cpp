#include "core/sim_executor.hpp"

namespace bt::core {

SimExecutor::SimExecutor(const platform::PerfModel& model,
                         runtime::RunConfig cfg)
    : backend(model), config(cfg), measureConfig(cfg)
{
    measureConfig.recordTrace = false;
}

runtime::RunResult
SimExecutor::execute(const Application& app,
                     const Schedule& schedule) const
{
    return backend.run(app, schedule, config);
}

runtime::RunResult
SimExecutor::measure(const Application& app,
                     const Schedule& schedule) const
{
    return backend.run(app, schedule, measureConfig);
}

} // namespace bt::core
