#include "simt/algorithms.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace bt::simt {

namespace {

/// Number of worker threads a device-wide primitive launches. Chosen to
/// look like a small integrated GPU (16 "blocks" of 64 threads).
constexpr int kGrid = 16;
constexpr int kBlock = 64;

/// Chunk bounds for thread `tid` of `threads` over n items.
struct Chunk
{
    std::int64_t lo;
    std::int64_t hi;
};

Chunk
chunkOf(std::int64_t tid, std::int64_t threads, std::int64_t n)
{
    return Chunk{n * tid / threads, n * (tid + 1) / threads};
}

/**
 * Launch policies: the device-wide primitives below are written once as
 * templates over a launcher and their span types. RawLauncher is the
 * production path - plain launches over plain spans, codegen identical
 * to the hand-written originals. CheckedLauncher routes every launch
 * through launchChecked and wraps internal scratch (partials, private
 * histograms) as tracked regions, so the checker sees the full phase
 * structure of each primitive.
 */
struct RawLauncher
{
    template <typename F>
    void
    run(const LaunchConfig& cfg, std::int64_t /*items*/,
        GeometryStyle /*style*/, F&& kernel) const
    {
        launch(cfg, std::forward<F>(kernel));
    }

    template <typename T>
    std::span<T>
    wrap(std::span<T> s, std::string_view /*name*/) const
    {
        return s;
    }

    template <typename V>
    void
    retire(const V& /*view*/) const
    {
    }
};

struct CheckedLauncher
{
    LaunchObserver* obs;

    template <typename F>
    void
    run(const LaunchConfig& cfg, std::int64_t items, GeometryStyle style,
        F&& kernel) const
    {
        launchChecked(cfg, std::forward<F>(kernel), *obs, items, style);
    }

    template <typename T>
    TrackedSpan<T>
    wrap(std::span<T> s, std::string_view name) const
    {
        return TrackedSpan<T>(s, *obs, name);
    }

    template <typename T>
    void
    retire(const TrackedSpan<T>& view) const
    {
        obs->retireRegion(view.region());
    }
};

template <typename L, typename InV, typename OutV>
std::uint64_t
scanImpl(const L& l, const InV& in, const OutV& out)
{
    BT_ASSERT(out.size() >= in.size(), "scan output too small");
    const std::int64_t n = static_cast<std::int64_t>(in.size());
    const LaunchConfig cfg{kGrid, kBlock};
    const std::int64_t threads = cfg.totalThreads();
    std::vector<std::uint64_t> storage(
        static_cast<std::size_t>(threads), 0);
    auto partials = l.wrap(std::span<std::uint64_t>(storage),
                           "scan.partials");

    // Phase 1: per-chunk sums.
    l.run(cfg, n, GeometryStyle::Chunked, [&](const WorkItem& item) {
        const auto [lo, hi] = chunkOf(item.globalId(), threads, n);
        std::uint64_t acc = 0;
        for (std::int64_t i = lo; i < hi; ++i)
            acc += in[static_cast<std::size_t>(i)];
        partials[static_cast<std::size_t>(item.globalId())] = acc;
    });

    // Phase 2: exclusive scan of the partials array (single thread; the
    // array has `threads` entries, negligible work).
    std::uint64_t total = 0;
    l.run(LaunchConfig{1, 1}, threads, GeometryStyle::Chunked,
          [&](const WorkItem&) {
              std::uint64_t run = 0;
              for (std::int64_t t = 0; t < threads; ++t) {
                  const std::size_t s = static_cast<std::size_t>(t);
                  const std::uint64_t v = partials[s];
                  partials[s] = run;
                  run += v;
              }
              total = run;
          });

    // Phase 3: per-chunk exclusive rescan seeded with the chunk offset.
    // Each index is read before written so in/out may alias.
    l.run(cfg, n, GeometryStyle::Chunked, [&](const WorkItem& item) {
        const auto [lo, hi] = chunkOf(item.globalId(), threads, n);
        std::uint64_t run
            = partials[static_cast<std::size_t>(item.globalId())];
        for (std::int64_t i = lo; i < hi; ++i) {
            const std::uint32_t v = in[static_cast<std::size_t>(i)];
            out[static_cast<std::size_t>(i)]
                = static_cast<std::uint32_t>(run);
            run += v;
        }
    });
    l.retire(partials);
    return total;
}

template <typename L, typename InV, typename OutV>
void
radixPassImpl(const L& l, const InV& in, const OutV& out, int shift,
              int radix_bits)
{
    BT_ASSERT(out.size() >= in.size(), "radix pass output too small");
    BT_ASSERT(radix_bits >= 1 && radix_bits <= 16);
    const std::uint32_t buckets = 1u << radix_bits;
    const std::uint32_t mask = buckets - 1;
    const std::int64_t n = static_cast<std::int64_t>(in.size());
    const LaunchConfig cfg{kGrid, kBlock};
    const std::int64_t threads = cfg.totalThreads();

    // Phase 1: per-chunk digit histograms.
    std::vector<std::uint32_t> storage(
        static_cast<std::size_t>(threads) * buckets, 0);
    auto hist = l.wrap(std::span<std::uint32_t>(storage), "radix.hist");
    l.run(cfg, n, GeometryStyle::Chunked, [&](const WorkItem& item) {
        const std::int64_t tid = item.globalId();
        const auto [lo, hi] = chunkOf(tid, threads, n);
        const std::size_t base = static_cast<std::size_t>(tid) * buckets;
        for (std::int64_t i = lo; i < hi; ++i)
            hist[base
                 + ((in[static_cast<std::size_t>(i)] >> shift) & mask)]
                += 1u;
    });

    // Phase 2: column-major exclusive scan of hist -> scatter offsets.
    // Order (bucket-major, then thread) preserves stability: lower chunks
    // of the same digit scatter first.
    l.run(LaunchConfig{1, 1},
          static_cast<std::int64_t>(buckets) * threads,
          GeometryStyle::Chunked, [&](const WorkItem&) {
              std::uint64_t run = 0;
              for (std::uint32_t b = 0; b < buckets; ++b) {
                  for (std::int64_t t = 0; t < threads; ++t) {
                      const std::size_t cell
                          = static_cast<std::size_t>(t) * buckets + b;
                      const std::uint32_t v = hist[cell];
                      hist[cell] = static_cast<std::uint32_t>(run);
                      run += v;
                  }
              }
          });

    // Phase 3: stable scatter; each thread walks its chunk in order.
    l.run(cfg, n, GeometryStyle::Chunked, [&](const WorkItem& item) {
        const std::int64_t tid = item.globalId();
        const auto [lo, hi] = chunkOf(tid, threads, n);
        const std::size_t base = static_cast<std::size_t>(tid) * buckets;
        for (std::int64_t i = lo; i < hi; ++i) {
            const std::uint32_t key = in[static_cast<std::size_t>(i)];
            const std::uint32_t d = (key >> shift) & mask;
            const std::uint32_t pos = hist[base + d];
            hist[base + d] = pos + 1;
            out[pos] = key;
        }
    });
    l.retire(hist);
}

template <typename L, typename KeyV, typename ScratchV>
void
radixSortImpl(const L& l, const KeyV& keys, const ScratchV& scratch,
              int radix_bits)
{
    BT_ASSERT(scratch.size() >= keys.size(), "radix scratch too small");
    BT_ASSERT(32 % radix_bits == 0, "radix bits must divide 32");
    auto src = keys;
    auto dst = scratch.subspan(0, keys.size());
    for (int shift = 0; shift < 32; shift += radix_bits) {
        radixPassImpl(l, src, dst, shift, radix_bits);
        std::swap(src, dst);
    }
    // 32/radix_bits passes: if odd, the result sits in scratch. The
    // copy-back is a host-side access between launches (barrier-legal).
    if (src.data() != keys.data()) {
        for (std::size_t i = 0; i < keys.size(); ++i)
            keys[i] = src[i];
    }
}

} // namespace

std::uint64_t
deviceExclusiveScan(std::span<const std::uint32_t> in,
                    std::span<std::uint32_t> out)
{
    return scanImpl(RawLauncher{}, in, out);
}

std::uint64_t
deviceExclusiveScan(TrackedSpan<const std::uint32_t> in,
                    TrackedSpan<std::uint32_t> out, LaunchObserver& obs)
{
    return scanImpl(CheckedLauncher{&obs}, in, out);
}

void
deviceRadixPass(std::span<const std::uint32_t> in,
                std::span<std::uint32_t> out, int shift, int radix_bits)
{
    radixPassImpl(RawLauncher{}, in, out, shift, radix_bits);
}

void
deviceRadixPass(TrackedSpan<const std::uint32_t> in,
                TrackedSpan<std::uint32_t> out, int shift, int radix_bits,
                LaunchObserver& obs)
{
    radixPassImpl(CheckedLauncher{&obs}, in, out, shift, radix_bits);
}

void
deviceRadixSort(std::span<std::uint32_t> keys,
                std::span<std::uint32_t> scratch, int radix_bits)
{
    radixSortImpl(RawLauncher{}, keys, scratch, radix_bits);
}

void
deviceRadixSort(TrackedSpan<std::uint32_t> keys,
                TrackedSpan<std::uint32_t> scratch, LaunchObserver& obs,
                int radix_bits)
{
    radixSortImpl(CheckedLauncher{&obs}, keys, scratch, radix_bits);
}

} // namespace bt::simt
