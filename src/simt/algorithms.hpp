/**
 * @file
 * Device-wide cooperative primitives, written the way GPU libraries write
 * them: multi-kernel phase structure with per-thread chunks and a partials
 * array standing in for inter-block communication. These are the building
 * blocks of the GPU backends for Sort, Prefix Sum and Duplicate Removal in
 * the Octree application.
 */

#ifndef BT_SIMT_ALGORITHMS_HPP
#define BT_SIMT_ALGORITHMS_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "simt/instrument.hpp"
#include "simt/simt.hpp"

namespace bt::simt {

/**
 * Device-wide exclusive prefix sum. in and out may alias. Implemented as
 * the classic three-phase scan: per-chunk partial sums, scan of partials,
 * per-chunk rescan with offsets.
 * @return the total sum (the value that would follow the last element).
 */
std::uint64_t deviceExclusiveScan(std::span<const std::uint32_t> in,
                                  std::span<std::uint32_t> out);

/**
 * One stable LSD radix-sort pass over `radixBits`-wide digits at
 * @p shift: per-chunk digit histograms, a scan producing per-chunk bucket
 * offsets, then a stable scatter. This mirrors the canonical GPU radix
 * sort (Satish et al.) with thread-chunks in place of thread blocks.
 */
void deviceRadixPass(std::span<const std::uint32_t> in,
                     std::span<std::uint32_t> out, int shift,
                     int radix_bits);

/**
 * Full LSD radix sort of 32-bit keys using ping-pong buffers.
 * @param scratch must be at least in.size() elements.
 */
void deviceRadixSort(std::span<std::uint32_t> keys,
                     std::span<std::uint32_t> scratch,
                     int radix_bits = 8);

/**
 * Checked overloads (bt::check): identical phase structure instantiated
 * over tracked views, with internal scratch (partials, private
 * histograms) registered as tracked regions under @p obs so races, OOB
 * accesses and order-dependence inside the primitives are caught too.
 * Results are bit-identical to the raw overloads.
 */
std::uint64_t deviceExclusiveScan(TrackedSpan<const std::uint32_t> in,
                                  TrackedSpan<std::uint32_t> out,
                                  LaunchObserver& obs);

void deviceRadixPass(TrackedSpan<const std::uint32_t> in,
                     TrackedSpan<std::uint32_t> out, int shift,
                     int radix_bits, LaunchObserver& obs);

void deviceRadixSort(TrackedSpan<std::uint32_t> keys,
                     TrackedSpan<std::uint32_t> scratch,
                     LaunchObserver& obs, int radix_bits = 8);

} // namespace bt::simt

#endif // BT_SIMT_ALGORITHMS_HPP
