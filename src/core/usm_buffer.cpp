#include "core/usm_buffer.hpp"

#include <cstdlib>
#include <cstring>
#include <new>

namespace bt::core {

UsmBuffer::UsmBuffer(std::size_t bytes) : bytes_(bytes)
{
    if (bytes_ == 0)
        return;
    // Round the size up to the alignment as aligned_alloc requires.
    const std::size_t padded = (bytes_ + 63) / 64 * 64;
    base = std::aligned_alloc(64, padded);
    if (!base)
        throw std::bad_alloc();
    std::memset(base, 0, padded);
}

UsmBuffer::~UsmBuffer()
{
    release();
}

UsmBuffer::UsmBuffer(UsmBuffer&& other) noexcept
    : base(other.base), bytes_(other.bytes_)
{
    other.base = nullptr;
    other.bytes_ = 0;
}

UsmBuffer&
UsmBuffer::operator=(UsmBuffer&& other) noexcept
{
    if (this != &other) {
        release();
        base = other.base;
        bytes_ = other.bytes_;
        other.base = nullptr;
        other.bytes_ = 0;
    }
    return *this;
}

void
UsmBuffer::release()
{
    if (base) {
        std::free(base);
        base = nullptr;
        bytes_ = 0;
    }
}

void
UsmBuffer::clear()
{
    if (base)
        std::memset(base, 0, bytes_);
}

} // namespace bt::core
