#include "core/native_executor.hpp"

namespace bt::core {

NativeExecutor::NativeExecutor(const platform::SocDescription& soc,
                               runtime::RunConfig cfg)
    : backend(soc), config(cfg)
{
    // Stage-bounded fault rules wait for the app: the backend checks
    // them on every run.
    config.requireInRange(0, soc.numPus());
}

runtime::RunResult
NativeExecutor::execute(const Application& app,
                        const Schedule& schedule) const
{
    return backend.run(app, schedule, config);
}

} // namespace bt::core
