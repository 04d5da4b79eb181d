/**
 * @file
 * Unified shared memory buffers (paper Sec. 3.1).
 *
 * On a UMA SoC every PU addresses one DRAM pool, so a buffer is a single
 * allocation visible to host and device kernels with zero copies. The
 * paper fronts this with std::pmr::vector over backend allocators
 * (cudaMallocManaged on CUDA, VkBuffer memory on Vulkan); here every
 * buffer is 64-byte-aligned host memory, since the simulated devices
 * share the host address space anyway. Kernels receive raw
 * pointers/spans into these buffers, exactly as in the paper's kernel
 * signatures (Fig. 3).
 */

#ifndef BT_CORE_USM_BUFFER_HPP
#define BT_CORE_USM_BUFFER_HPP

#include <cstddef>
#include <span>

namespace bt::core {

/** One unified-memory allocation. Move-only; owns its storage. */
class UsmBuffer
{
  public:
    UsmBuffer() = default;

    /** Allocate @p bytes, 64-byte aligned and zero-initialized. */
    explicit UsmBuffer(std::size_t bytes);

    ~UsmBuffer();
    UsmBuffer(UsmBuffer&& other) noexcept;
    UsmBuffer& operator=(UsmBuffer&& other) noexcept;
    UsmBuffer(const UsmBuffer&) = delete;
    UsmBuffer& operator=(const UsmBuffer&) = delete;

    std::size_t sizeBytes() const { return bytes_; }
    bool empty() const { return bytes_ == 0; }

    /** Raw device+host visible base pointer. */
    void* data() { return base; }
    const void* data() const { return base; }

    /** Typed view over the full buffer; size must divide evenly. */
    template <typename T>
    std::span<T>
    span()
    {
        return {static_cast<T*>(base), bytes_ / sizeof(T)};
    }

    template <typename T>
    std::span<const T>
    span() const
    {
        return {static_cast<const T*>(base), bytes_ / sizeof(T)};
    }

    /** Zero the contents. */
    void clear();

  private:
    void release();

    void* base = nullptr;
    std::size_t bytes_ = 0;
};

} // namespace bt::core

#endif // BT_CORE_USM_BUFFER_HPP
