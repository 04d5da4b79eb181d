#include "core/schedule.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include "common/logging.hpp"

namespace bt::core {

Schedule::Schedule(std::vector<Chunk> chunks_in)
    : chunks_(std::move(chunks_in))
{
    BT_ASSERT(!chunks_.empty(), "schedule needs at least one chunk");
    int expect = 0;
    std::set<int> used;
    for (const auto& c : chunks_) {
        BT_ASSERT(c.firstStage == expect,
                  "chunks must tile the stage sequence");
        BT_ASSERT(c.lastStage >= c.firstStage, "empty chunk");
        BT_ASSERT(used.insert(c.pu).second,
                  "PU ", c.pu, " used by two chunks (violates C2)");
        expect = c.lastStage + 1;
    }
}

Schedule
Schedule::homogeneous(int num_stages, int pu)
{
    BT_ASSERT(num_stages > 0);
    return Schedule({Chunk{0, num_stages - 1, pu}});
}

Schedule
Schedule::fromAssignment(const std::vector<int>& stage_to_pu)
{
    BT_ASSERT(!stage_to_pu.empty());
    std::vector<Chunk> chunks;
    int first = 0;
    for (std::size_t s = 1; s <= stage_to_pu.size(); ++s) {
        if (s == stage_to_pu.size()
            || stage_to_pu[s] != stage_to_pu[static_cast<std::size_t>(
                   first)]) {
            chunks.push_back(Chunk{first, static_cast<int>(s) - 1,
                                   stage_to_pu[static_cast<std::size_t>(
                                       first)]});
            first = static_cast<int>(s);
        }
    }
    return Schedule(std::move(chunks)); // ctor re-checks distinctness
}

int
Schedule::numStages() const
{
    return chunks_.empty() ? 0 : chunks_.back().lastStage + 1;
}

int
Schedule::puOfStage(int s) const
{
    for (const auto& c : chunks_)
        if (s >= c.firstStage && s <= c.lastStage)
            return c.pu;
    BT_PANIC("schedule.coverage", "stage ", s,
             " not covered by schedule");
}

std::vector<int>
Schedule::toAssignment() const
{
    std::vector<int> a(static_cast<std::size_t>(numStages()), -1);
    for (const auto& c : chunks_)
        for (int s = c.firstStage; s <= c.lastStage; ++s)
            a[static_cast<std::size_t>(s)] = c.pu;
    return a;
}

bool
Schedule::valid(int num_stages, int num_pus) const
{
    if (chunks_.empty() || numStages() != num_stages)
        return false;
    if (numChunks() > num_pus)
        return false;
    for (const auto& c : chunks_)
        if (c.pu < 0 || c.pu >= num_pus)
            return false;
    return true;
}

double
Schedule::chunkTime(const ProfilingTable& table, int c) const
{
    BT_ASSERT(c >= 0 && c < numChunks());
    const Chunk& ch = chunks_[static_cast<std::size_t>(c)];
    return table.rangeTime(ch.firstStage, ch.lastStage, ch.pu);
}

double
Schedule::bottleneckTime(const ProfilingTable& table) const
{
    double worst = 0.0;
    for (int c = 0; c < numChunks(); ++c)
        worst = std::max(worst, chunkTime(table, c));
    return worst;
}

double
Schedule::gapness(const ProfilingTable& table) const
{
    double lo = chunkTime(table, 0);
    double hi = lo;
    for (int c = 1; c < numChunks(); ++c) {
        const double t = chunkTime(table, c);
        lo = std::min(lo, t);
        hi = std::max(hi, t);
    }
    return hi - lo;
}

std::string
Schedule::toString(const platform::SocDescription& soc,
                   const std::vector<std::string>& names) const
{
    std::ostringstream os;
    for (int c = 0; c < numChunks(); ++c) {
        const Chunk& ch = chunks_[static_cast<std::size_t>(c)];
        if (c > 0)
            os << " | ";
        os << '[';
        if (ch.firstStage == ch.lastStage) {
            os << names[static_cast<std::size_t>(ch.firstStage)];
        } else {
            os << names[static_cast<std::size_t>(ch.firstStage)] << ".."
               << names[static_cast<std::size_t>(ch.lastStage)];
        }
        os << "]->" << soc.pu(ch.pu).label;
    }
    return os.str();
}

std::string
Schedule::compactString() const
{
    std::string s;
    for (int pu : toAssignment())
        s += static_cast<char>('0' + pu);
    return s;
}

namespace {

/**
 * Recursive generator: split the remaining stages [start, n) into chunks
 * and assign each a PU not used so far.
 */
void
enumerateRec(int start, int n, int num_pus, std::uint32_t used_mask,
             std::vector<Chunk>& acc, std::vector<Schedule>* out,
             std::uint64_t* count)
{
    if (start == n) {
        if (out)
            out->push_back(Schedule(acc));
        if (count)
            ++*count;
        return;
    }
    for (int end = start; end < n; ++end) {
        for (int pu = 0; pu < num_pus; ++pu) {
            if (used_mask & (1u << pu))
                continue;
            acc.push_back(Chunk{start, end, pu});
            enumerateRec(end + 1, n, num_pus, used_mask | (1u << pu),
                         acc, out, count);
            acc.pop_back();
        }
    }
}

} // namespace

std::vector<Schedule>
enumerateSchedules(int num_stages, int num_pus, std::uint32_t allowed_mask)
{
    BT_ASSERT(num_stages > 0 && num_pus > 0);
    BT_ASSERT(num_pus <= 32, "PU mask limited to 32 classes");
    std::vector<Schedule> out;
    std::vector<Chunk> acc;
    // Excluded PUs start out "used", so the walk never assigns them.
    enumerateRec(0, num_stages, num_pus, ~allowed_mask, acc, &out,
                 nullptr);
    return out;
}

std::uint64_t
countSchedules(int num_stages, int num_pus)
{
    BT_ASSERT(num_stages > 0 && num_pus > 0);
    std::uint64_t count = 0;
    std::vector<Chunk> acc;
    enumerateRec(0, num_stages, num_pus, 0u, acc, nullptr, &count);
    return count;
}

std::uint64_t
scheduleSpaceSize(int num_stages, int num_pus)
{
    BT_ASSERT(num_stages > 0 && num_pus > 0,
              "scheduleSpaceSize needs positive stage/PU counts");
    constexpr std::uint64_t kSat = std::numeric_limits<std::uint64_t>::max();
    const auto n = static_cast<unsigned __int128>(num_stages);
    const auto m = static_cast<unsigned __int128>(num_pus);

    unsigned __int128 total = 0;
    unsigned __int128 binom = 1; // C(n-1, k-1), updated incrementally
    unsigned __int128 perm = m;  // m * (m-1) * ... * (m-k+1)
    const int kmax = std::min(num_stages, num_pus);
    for (int k = 1; k <= kmax; ++k) {
        if (k > 1) {
            // C(n-1, k-1) = C(n-1, k-2) * (n-k+1) / (k-1); the product
            // before division is exact because C(n-1, k-2)*(n-k+1) is
            // divisible by k-1.
            binom = binom * (n - static_cast<unsigned>(k) + 1) /
                    static_cast<unsigned>(k - 1);
            perm *= m - static_cast<unsigned>(k) + 1;
        }
        const unsigned __int128 term = binom * perm;
        // A single term past 2^64 (or an overflowing product) saturates
        // the whole sum; every factor here fits 2^64 individually so
        // the 128-bit products themselves cannot wrap for any num_stages
        // and num_pus that fit an int.
        if (binom > kSat || term / perm != binom)
            return kSat;
        total += term;
        if (total > kSat)
            return kSat;
    }
    return static_cast<std::uint64_t>(total);
}

} // namespace bt::core
