#include "core/native_executor.hpp"

#include "common/logging.hpp"

namespace bt::core {

NativeExecutor::NativeExecutor(const platform::SocDescription& soc,
                               runtime::RunConfig cfg)
    : backend(soc), config(cfg)
{
    BT_ASSERT(config.numTasks > 0);
    BT_ASSERT(config.queueCapacity > 0);
}

runtime::RunResult
NativeExecutor::execute(const Application& app,
                        const Schedule& schedule) const
{
    return backend.run(app, schedule, config);
}

} // namespace bt::core
