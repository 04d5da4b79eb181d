/**
 * @file
 * TaskObject: the unit of data flowing through a pipeline (paper
 * Sec. 3.4). It bundles every UsmBuffer an application needs to carry one
 * streaming input from the first stage to the last - persistent data,
 * pre-allocated scratchpads, and scalar parameters - so dispatcher
 * threads can hand a single pointer through the SPSC queues.
 */

#ifndef BT_CORE_TASK_OBJECT_HPP
#define BT_CORE_TASK_OBJECT_HPP

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "core/usm_buffer.hpp"

namespace bt::core {

/**
 * Named unified-memory buffers plus scalar metadata. Buffers are
 * allocated once (construction time) and recycled across tasks by the
 * multi-buffering executor; scalars carry per-task values such as element
 * counts produced by one stage and consumed by the next.
 */
class TaskObject
{
  public:
    TaskObject() = default;
    TaskObject(const TaskObject&) = delete;
    TaskObject& operator=(const TaskObject&) = delete;
    TaskObject(TaskObject&&) = default;
    TaskObject& operator=(TaskObject&&) = default;

    /** Allocate a buffer of @p bytes under @p name (must be fresh). */
    UsmBuffer& addBuffer(const std::string& name, std::size_t bytes);

    /** Whether a buffer called @p name exists. */
    bool hasBuffer(const std::string& name) const;
    std::size_t numBuffers() const { return buffers.size(); }

    /** Look up a buffer; panics on unknown names (programming error). */
    UsmBuffer& buffer(const std::string& name);
    const UsmBuffer& buffer(const std::string& name) const;

    /** Typed whole-buffer view. */
    template <typename T>
    std::span<T>
    view(const std::string& name)
    {
        return buffer(name).span<T>();
    }

    template <typename T>
    std::span<const T>
    view(const std::string& name) const
    {
        return buffer(name).span<T>();
    }

    /** Set / read an integer scalar (e.g. "unique_count"). */
    void setScalar(const std::string& name, std::int64_t value);
    std::int64_t scalar(const std::string& name) const;
    bool hasScalar(const std::string& name) const;

    /** Sequence number of the streaming input this object carries. */
    std::int64_t taskIndex() const { return index; }
    void setTaskIndex(std::int64_t i) { index = i; }

    /**
     * Prepare for recycling: clears scalars and the task index but keeps
     * all buffer allocations (the paper pre-allocates scratchpads to
     * avoid allocation on the hot path).
     */
    void reset();

  private:
    std::map<std::string, UsmBuffer> buffers;
    std::map<std::string, std::int64_t> scalars;
    std::int64_t index = -1;
};

} // namespace bt::core

#endif // BT_CORE_TASK_OBJECT_HPP
