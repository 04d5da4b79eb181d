/**
 * @file
 * bt::check - a compute-sanitizer for the SIMT kernel layer.
 *
 * Checker implements simt::LaunchObserver with a shadow memory: one
 * cell per element of every registered buffer records which SIMT
 * threads of the *current launch* touched it (first writer, two
 * distinct readers, first atomic). From those cells it reports, with
 * kernel name, launch geometry and the offending (blockIdx, threadIdx)
 * pairs:
 *
 *  - intra-launch data races (write/write, read/write, and atomic
 *    operations mixed with plain accesses on the same element by
 *    different threads of one launch; launches are device-wide
 *    barriers, so cross-launch reuse is legal and the shadow state is
 *    re-epoched at every launch);
 *  - out-of-bounds accesses through checked spans/tensor views;
 *  - launch-geometry lint: direct-indexed launches that cannot reach
 *    all n items, and grids with dead blocks beyond what
 *    LaunchConfig::cover would allocate;
 *  - order dependence: every multi-block launch is re-executed under
 *    permuted block schedules (simt::launchShuffled) after restoring
 *    the pre-launch contents of all writable regions, and the outputs
 *    are diffed bit-exactly against the sequential run.
 *
 * See docs/CHECKER.md for how to read a report.
 */

#ifndef BT_CHECK_CHECKER_HPP
#define BT_CHECK_CHECKER_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "simt/instrument.hpp"

namespace bt::json {
class Writer;
}

namespace bt::check {

enum class FindingKind
{
    WriteWriteRace,
    ReadWriteRace,
    AtomicMixRace, ///< atomic RMW vs plain access on one element
    OobRead,
    OobWrite,
    UnderCoveringLaunch, ///< direct-indexed launch with too few threads
    DeadBlocks,          ///< grid beyond LaunchConfig::cover's need
    OrderDependence,     ///< output changed under a shuffled block order
    ValidationFailure,   ///< app validator rejected the checked run
};

/** Stable machine-readable name ("write_write_race", ...). */
std::string_view findingKindName(FindingKind kind);

/** Decoded SIMT thread identity; block -1 = host-side access. */
struct ThreadId
{
    int block = -1;
    int thread = -1;
};

/** One checker diagnostic; repeats on the same (kernel, launch, kind,
 *  buffer) fold into `count` with the first occurrence's details. */
struct Finding
{
    FindingKind kind{};
    std::string context; ///< app/stage path, e.g. "octree/sort"
    std::string kernel;  ///< innermost kernel scope, e.g. "radix_sort"
    int launch = 0;      ///< launch ordinal within the kernel
    int gridDim = 0;
    int blockDim = 0;
    std::string buffer;      ///< region name
    std::int64_t element = -1; ///< region-relative element index
    ThreadId first;           ///< earlier accessor (races) / accessor
    ThreadId second;          ///< conflicting accessor (races)
    int count = 1;            ///< folded occurrences
    std::string note;

    std::string toString() const;
};

struct CheckStats
{
    int kernels = 0;
    int launches = 0;
    int reruns = 0;
    std::int64_t regions = 0;
    std::int64_t accesses = 0;
};

struct Report
{
    std::vector<Finding> findings;
    CheckStats stats;
    int suppressed = 0; ///< findings dropped past Checker::kMaxFindings

    bool clean() const { return findings.empty() && suppressed == 0; }

    /** One-line human summary. */
    std::string summary() const;

    /** Full human-readable listing. */
    void print(std::ostream& os) const;

    /** Machine-readable report (a JSON object). */
    void writeJson(std::ostream& os) const;

    /** The members of writeJson's object, into an object @p w has
     *  open - for callers that add members of their own. */
    void writeMembers(json::Writer& w) const;

    /** Append another report's findings and stats (multi-app sweeps). */
    void merge(Report other);
};

class Checker final : public simt::LaunchObserver
{
  public:
    static constexpr int kReruns = 2; ///< shuffled re-executions per launch
    static constexpr std::uint64_t kSeed = 0x5eedu; ///< permutation seed
    static constexpr int kMaxFindings = 256; ///< cap on stored findings

    ~Checker() override;

    /** Push/pop a context frame (app or stage name) onto findings. */
    void pushContext(std::string_view name);
    void popContext();

    /** Record an app-level validation failure into the report. */
    void addValidationFailure(std::string_view context,
                              std::string_view message);

    const Report& report() const { return report_; }

    /** Move the report out and reset all checker state. */
    Report takeReport();

    // simt::LaunchObserver
    void beginKernel(std::string_view name) override;
    void endKernel() override;
    int registerRegion(const void* base, std::int64_t elems,
                       std::size_t elem_bytes, std::string_view name,
                       bool readonly) override;
    void retireRegion(int region) override;
    void onLaunchBegin(const simt::LaunchConfig& cfg, std::int64_t items,
                       simt::GeometryStyle style) override;
    void onThreadBegin(const simt::WorkItem& item) override;
    void onLaunchEnd() override;
    int rerunCount() const override;
    std::uint64_t rerunSeed(int rerun) const override;
    void onRerunBegin(int rerun) override;
    void onRerunEnd(int rerun) override;
    void onAccess(int region, std::int64_t index,
                  simt::AccessKind kind) override;
    void onOutOfBounds(int region, std::int64_t index,
                       simt::AccessKind kind) override;

  private:
    /** Per-element shadow cell, valid for the epoch stamped on it. */
    struct Cell
    {
        std::int64_t w0 = -1; ///< first writer thread
        std::int64_t r0 = -1; ///< first reader thread
        std::int64_t r1 = -1; ///< second distinct reader thread
        std::int64_t a0 = -1; ///< first atomic-RMW thread
        std::uint64_t epoch = 0;
    };

    struct Region
    {
        const std::byte* base = nullptr;
        std::int64_t elems = 0;
        std::size_t elemBytes = 0;
        std::string name;
        bool readonly = true;
        bool retired = false;
        std::vector<Cell> shadow;        ///< lazily sized to elems
        std::vector<std::byte> preLaunch;  ///< snapshot for reruns
        std::vector<std::byte> postLaunch; ///< sequential-run output
    };

    Cell& cellFor(Region& region, std::int64_t index);
    ThreadId decode(std::int64_t thread) const;
    std::string contextPath() const;
    void lintGeometry(const simt::LaunchConfig& cfg, std::int64_t items,
                      simt::GeometryStyle style);
    void addFinding(FindingKind kind, const std::string& buffer,
                    std::int64_t element, ThreadId first, ThreadId second,
                    std::string note);
    void raceOn(FindingKind kind, Region& region, std::int64_t index,
                std::int64_t earlier, std::int64_t current);

    Report report_;

    std::vector<Region> regions_;
    std::vector<std::string> contextStack_;
    std::vector<std::string> kernelStack_;
    /// regions_.size() at each beginKernel, to retire scope-local regions
    std::vector<std::size_t> regionMarks_;
    /// per-kernel launch counter (resets at beginKernel)
    int launchInKernel_ = 0;

    simt::LaunchConfig cfg_{};
    std::uint64_t epoch_ = 0;   ///< global launch ordinal
    bool inLaunch_ = false;
    bool passive_ = false;      ///< during shuffled reruns
    std::int64_t current_ = -1; ///< current SIMT thread; -1 = host
};

/** RAII context frame (app or stage name) on a checker. */
class ContextScope
{
  public:
    ContextScope(Checker& checker, std::string_view name)
        : checker_(checker)
    {
        checker_.pushContext(name);
    }
    ~ContextScope() { checker_.popContext(); }
    ContextScope(const ContextScope&) = delete;
    ContextScope& operator=(const ContextScope&) = delete;

  private:
    Checker& checker_;
};

} // namespace bt::check

#endif // BT_CHECK_CHECKER_HPP
