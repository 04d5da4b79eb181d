#include "check/checker.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <sstream>

#include "common/json.hpp"
#include "common/logging.hpp"

namespace bt::check {

namespace {

/** splitmix64 finalizer: decorrelates (seed, launch, rerun) triples. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::string
threadLabel(const ThreadId& id)
{
    if (id.block < 0)
        return "host";
    std::ostringstream os;
    os << "(b" << id.block << ",t" << id.thread << ")";
    return os.str();
}

} // namespace

std::string_view
findingKindName(FindingKind kind)
{
    switch (kind) {
    case FindingKind::WriteWriteRace: return "write_write_race";
    case FindingKind::ReadWriteRace: return "read_write_race";
    case FindingKind::AtomicMixRace: return "atomic_mix_race";
    case FindingKind::OobRead: return "oob_read";
    case FindingKind::OobWrite: return "oob_write";
    case FindingKind::UnderCoveringLaunch: return "under_covering_launch";
    case FindingKind::DeadBlocks: return "dead_blocks";
    case FindingKind::OrderDependence: return "order_dependence";
    case FindingKind::ValidationFailure: return "validation_failure";
    }
    return "unknown";
}

std::string
Finding::toString() const
{
    std::ostringstream os;
    os << "[" << findingKindName(kind) << "] ";
    if (!context.empty())
        os << context << " ";
    os << kernel << " launch " << launch << " (grid " << gridDim << "x"
       << blockDim << ")";
    if (!buffer.empty())
        os << " buffer '" << buffer << "'";
    if (element >= 0)
        os << " element " << element;
    if (second.block >= 0 || second.thread >= 0)
        os << ": threads " << threadLabel(first) << " and "
           << threadLabel(second);
    else if (first.block >= 0 || first.thread >= 0
             || kind == FindingKind::OobRead
             || kind == FindingKind::OobWrite)
        os << ": thread " << threadLabel(first);
    if (!note.empty())
        os << " - " << note;
    if (count > 1)
        os << " (x" << count << ")";
    return os.str();
}

std::string
Report::summary() const
{
    std::ostringstream os;
    if (clean())
        os << "bt::check clean: ";
    else
        os << "bt::check found " << findings.size() << " issue(s)"
           << (suppressed ? " (+suppressed)" : "") << ": ";
    os << stats.kernels << " kernels, " << stats.launches << " launches, "
       << stats.reruns << " shuffled reruns, " << stats.regions
       << " regions, " << stats.accesses << " accesses tracked";
    return os.str();
}

void
Report::print(std::ostream& os) const
{
    os << summary() << "\n";
    for (const Finding& f : findings)
        os << "  " << f.toString() << "\n";
    if (suppressed > 0)
        os << "  ... " << suppressed << " further finding(s) suppressed\n";
}

void
Report::writeJson(std::ostream& os) const
{
    json::Writer w(os);
    w.beginObject();
    writeMembers(w);
    w.endObject();
}

void
Report::writeMembers(json::Writer& w) const
{
    w.member("clean", clean()).member("suppressed", suppressed);
    w.key("stats").beginObject().member("kernels", stats.kernels);
    w.member("launches", stats.launches).member("reruns", stats.reruns);
    w.member("regions", stats.regions);
    w.member("accesses", stats.accesses).endObject();
    w.key("findings").beginArray();
    for (const Finding& f : findings) {
        w.beginObject().member("kind", findingKindName(f.kind));
        w.member("context", f.context).member("kernel", f.kernel);
        w.member("launch", f.launch).member("grid_dim", f.gridDim);
        w.member("block_dim", f.blockDim).member("buffer", f.buffer);
        w.member("element", f.element).key("first").beginObject();
        w.member("block", f.first.block).member("thread", f.first.thread);
        w.endObject().key("second").beginObject();
        w.member("block", f.second.block).member("thread", f.second.thread);
        w.endObject();
        w.member("count", f.count).member("note", f.note).endObject();
    }
    w.endArray();
}

void
Report::merge(Report other)
{
    for (Finding& f : other.findings)
        findings.push_back(std::move(f));
    stats.kernels += other.stats.kernels;
    stats.launches += other.stats.launches;
    stats.reruns += other.stats.reruns;
    stats.regions += other.stats.regions;
    stats.accesses += other.stats.accesses;
    suppressed += other.suppressed;
}

Checker::~Checker() = default;

void
Checker::pushContext(std::string_view name)
{
    contextStack_.emplace_back(name);
}

void
Checker::popContext()
{
    BT_ASSERT(!contextStack_.empty(), "context underflow");
    contextStack_.pop_back();
}

void
Checker::addValidationFailure(std::string_view context,
                              std::string_view message)
{
    Finding f;
    f.kind = FindingKind::ValidationFailure;
    f.context = context;
    f.kernel = "<validator>";
    f.note = message;
    report_.findings.push_back(std::move(f));
}

Report
Checker::takeReport()
{
    Report out = std::move(report_);
    report_ = Report{};
    regions_.clear();
    contextStack_.clear();
    kernelStack_.clear();
    regionMarks_.clear();
    launchInKernel_ = 0;
    epoch_ = 0;
    inLaunch_ = false;
    passive_ = false;
    current_ = -1;
    return out;
}

void
Checker::beginKernel(std::string_view name)
{
    kernelStack_.emplace_back(name);
    regionMarks_.push_back(regions_.size());
    launchInKernel_ = 0;
    ++report_.stats.kernels;
}

void
Checker::endKernel()
{
    BT_ASSERT(!kernelStack_.empty(), "kernel scope underflow");
    // Regions registered inside the scope may point at scope-local
    // buffers; retire them so later snapshots never touch freed memory.
    for (std::size_t r = regionMarks_.back(); r < regions_.size(); ++r)
        retireRegion(static_cast<int>(r));
    regionMarks_.pop_back();
    kernelStack_.pop_back();
}

int
Checker::registerRegion(const void* base, std::int64_t elems,
                        std::size_t elem_bytes, std::string_view name,
                        bool readonly)
{
    // The same (base, extent) registered twice - e.g. an in-place scan
    // handing one buffer as both input and output - aliases onto one
    // region so the race rules see a single element space.
    for (std::size_t r = 0; r < regions_.size(); ++r) {
        Region& existing = regions_[r];
        if (!existing.retired && existing.base == base
            && existing.elems == elems
            && existing.elemBytes == elem_bytes) {
            existing.readonly = existing.readonly && readonly;
            return static_cast<int>(r);
        }
    }
    Region region;
    region.base = static_cast<const std::byte*>(base);
    region.elems = elems;
    region.elemBytes = elem_bytes;
    region.name = name;
    region.readonly = readonly;
    regions_.push_back(std::move(region));
    ++report_.stats.regions;
    return static_cast<int>(regions_.size() - 1);
}

void
Checker::retireRegion(int region)
{
    Region& r = regions_[static_cast<std::size_t>(region)];
    r.retired = true;
    r.shadow.clear();
    r.shadow.shrink_to_fit();
    r.preLaunch.clear();
    r.preLaunch.shrink_to_fit();
    r.postLaunch.clear();
    r.postLaunch.shrink_to_fit();
}

void
Checker::lintGeometry(const simt::LaunchConfig& cfg, std::int64_t items,
                      simt::GeometryStyle style)
{
    if (items < 0 || cfg.blockDim <= 0 || cfg.gridDim <= 0)
        return;
    const std::int64_t total = cfg.totalThreads();
    const std::int64_t needed
        = items <= 0 ? 1 : (items - 1) / cfg.blockDim + 1;
    if (style == simt::GeometryStyle::Direct && total < items) {
        std::ostringstream note;
        note << "direct-indexed launch supplies " << total
             << " threads for " << items << " items; the last "
             << (items - total) << " item(s) never execute";
        addFinding(FindingKind::UnderCoveringLaunch, "", -1, ThreadId{},
                   ThreadId{}, note.str());
    } else if (style != simt::GeometryStyle::Chunked
               && cfg.gridDim > needed) {
        std::ostringstream note;
        note << "gridDim " << cfg.gridDim << " exceeds the " << needed
             << " block(s) LaunchConfig::cover(" << items << ", "
             << cfg.blockDim << ") would allocate; "
             << (cfg.gridDim - needed) << " block(s) are dead";
        addFinding(FindingKind::DeadBlocks, "", -1, ThreadId{},
                   ThreadId{}, note.str());
    }
}

void
Checker::onLaunchBegin(const simt::LaunchConfig& cfg, std::int64_t items,
                       simt::GeometryStyle style)
{
    cfg_ = cfg;
    ++epoch_;
    inLaunch_ = true;
    current_ = -1;
    ++report_.stats.launches;
    ++launchInKernel_;
    lintGeometry(cfg, items, style);
    if (rerunCount() > 0) {
        // Snapshot every live writable region for the shuffle harness.
        for (Region& region : regions_) {
            if (region.retired || region.readonly)
                continue;
            const std::size_t bytes = static_cast<std::size_t>(
                region.elems) * region.elemBytes;
            region.preLaunch.assign(region.base, region.base + bytes);
        }
    }
}

void
Checker::onThreadBegin(const simt::WorkItem& item)
{
    current_ = item.globalId();
}

void
Checker::onLaunchEnd()
{
    inLaunch_ = false;
    current_ = -1;
    if (rerunCount() > 0) {
        for (Region& region : regions_) {
            if (region.retired || region.readonly)
                continue;
            const std::size_t bytes = static_cast<std::size_t>(
                region.elems) * region.elemBytes;
            region.postLaunch.assign(region.base, region.base + bytes);
        }
    }
}

int
Checker::rerunCount() const
{
    // Single-block launches have only one schedule; nothing to shuffle.
    return cfg_.gridDim > 1 ? kReruns : 0;
}

std::uint64_t
Checker::rerunSeed(int rerun) const
{
    return mix(kSeed ^ mix(epoch_)
               ^ (static_cast<std::uint64_t>(rerun) << 32));
}

void
Checker::onRerunBegin(int /*rerun*/)
{
    ++report_.stats.reruns;
    passive_ = true;
    inLaunch_ = true;
    for (Region& region : regions_) {
        if (region.retired || region.readonly || region.preLaunch.empty())
            continue;
        std::memcpy(const_cast<std::byte*>(region.base),
                    region.preLaunch.data(), region.preLaunch.size());
    }
}

void
Checker::onRerunEnd(int rerun)
{
    passive_ = false;
    inLaunch_ = false;
    current_ = -1;
    for (Region& region : regions_) {
        if (region.retired || region.readonly
            || region.postLaunch.empty())
            continue;
        const std::byte* live = region.base;
        const std::byte* want = region.postLaunch.data();
        const std::size_t bytes = region.postLaunch.size();
        if (std::memcmp(live, want, bytes) != 0) {
            std::int64_t firstDiff = -1;
            std::int64_t diffs = 0;
            for (std::int64_t e = 0; e < region.elems; ++e) {
                const std::size_t off = static_cast<std::size_t>(e)
                                        * region.elemBytes;
                if (std::memcmp(live + off, want + off,
                                region.elemBytes)
                    != 0) {
                    if (firstDiff < 0)
                        firstDiff = e;
                    ++diffs;
                }
            }
            std::ostringstream note;
            note << diffs << " element(s) differ from the sequential "
                 << "run under shuffled block order (rerun " << rerun
                 << ", seed " << rerunSeed(rerun) << ")";
            addFinding(FindingKind::OrderDependence, region.name,
                       firstDiff, ThreadId{}, ThreadId{}, note.str());
        }
        // Leave memory in the sequential-run state either way so the
        // checked execution stays bit-identical to an unchecked one.
        std::memcpy(const_cast<std::byte*>(region.base), want, bytes);
    }
}

Checker::Cell&
Checker::cellFor(Region& region, std::int64_t index)
{
    if (region.shadow.empty())
        region.shadow.resize(static_cast<std::size_t>(region.elems));
    Cell& cell = region.shadow[static_cast<std::size_t>(index)];
    if (cell.epoch != epoch_)
        cell = Cell{-1, -1, -1, -1, epoch_};
    return cell;
}

ThreadId
Checker::decode(std::int64_t thread) const
{
    if (thread < 0)
        return ThreadId{};
    return ThreadId{static_cast<int>(thread / cfg_.blockDim),
                    static_cast<int>(thread % cfg_.blockDim)};
}

std::string
Checker::contextPath() const
{
    std::string path;
    for (const std::string& frame : contextStack_) {
        if (!path.empty())
            path += "/";
        path += frame;
    }
    return path;
}

void
Checker::addFinding(FindingKind kind, const std::string& buffer,
                    std::int64_t element, ThreadId first, ThreadId second,
                    std::string note)
{
    std::string kernel;
    for (const std::string& frame : kernelStack_) {
        if (!kernel.empty())
            kernel += "/";
        kernel += frame;
    }
    if (kernel.empty())
        kernel = "<anonymous>";
    const std::string context = contextPath();

    // Fold repeats of the same defect (same kind, site and buffer) into
    // one finding so a racy element per thread does not flood the report.
    for (Finding& f : report_.findings) {
        if (f.kind == kind && f.kernel == kernel && f.context == context
            && f.launch == launchInKernel_ && f.buffer == buffer) {
            ++f.count;
            return;
        }
    }
    if (static_cast<int>(report_.findings.size()) >= kMaxFindings) {
        ++report_.suppressed;
        return;
    }
    Finding f;
    f.kind = kind;
    f.context = context;
    f.kernel = kernel;
    f.launch = launchInKernel_;
    f.gridDim = cfg_.gridDim;
    f.blockDim = cfg_.blockDim;
    f.buffer = buffer;
    f.element = element;
    f.first = first;
    f.second = second;
    f.note = std::move(note);
    report_.findings.push_back(std::move(f));
}

void
Checker::raceOn(FindingKind kind, Region& region, std::int64_t index,
                std::int64_t earlier, std::int64_t current)
{
    addFinding(kind, region.name, index, decode(earlier),
               decode(current), "");
}

void
Checker::onAccess(int region, std::int64_t index, simt::AccessKind kind)
{
    if (passive_)
        return;
    ++report_.stats.accesses;
    Region& r = regions_[static_cast<std::size_t>(region)];
    if (r.retired)
        return;
    // Host-side accesses (outside any launch) are launch boundaries:
    // bounds were already checked by the tracked span, no race state.
    if (!inLaunch_ || current_ < 0)
        return;
    if (r.readonly)
        return;
    const std::int64_t t = current_;
    Cell& cell = cellFor(r, index);
    switch (kind) {
    case simt::AccessKind::Write:
        if (cell.a0 >= 0 && cell.a0 != t)
            raceOn(FindingKind::AtomicMixRace, r, index, cell.a0, t);
        if (cell.w0 >= 0 && cell.w0 != t)
            raceOn(FindingKind::WriteWriteRace, r, index, cell.w0, t);
        else if (cell.r0 >= 0 && cell.r0 != t)
            raceOn(FindingKind::ReadWriteRace, r, index, cell.r0, t);
        else if (cell.r1 >= 0 && cell.r1 != t)
            raceOn(FindingKind::ReadWriteRace, r, index, cell.r1, t);
        if (cell.w0 < 0)
            cell.w0 = t;
        break;
    case simt::AccessKind::Read:
        if (cell.w0 >= 0 && cell.w0 != t)
            raceOn(FindingKind::ReadWriteRace, r, index, cell.w0, t);
        if (cell.a0 >= 0 && cell.a0 != t)
            raceOn(FindingKind::AtomicMixRace, r, index, cell.a0, t);
        // Two distinct reader slots: a later writer can equal at most
        // one of them, so two are enough to always catch read/write.
        if (cell.r0 < 0)
            cell.r0 = t;
        else if (cell.r0 != t && cell.r1 < 0)
            cell.r1 = t;
        break;
    case simt::AccessKind::AtomicRmw:
        if (cell.w0 >= 0 && cell.w0 != t)
            raceOn(FindingKind::AtomicMixRace, r, index, cell.w0, t);
        if (cell.r0 >= 0 && cell.r0 != t)
            raceOn(FindingKind::AtomicMixRace, r, index, cell.r0, t);
        else if (cell.r1 >= 0 && cell.r1 != t)
            raceOn(FindingKind::AtomicMixRace, r, index, cell.r1, t);
        if (cell.a0 < 0)
            cell.a0 = t;
        break;
    }
}

void
Checker::onOutOfBounds(int region, std::int64_t index,
                       simt::AccessKind kind)
{
    if (passive_)
        return;
    ++report_.stats.accesses;
    Region& r = regions_[static_cast<std::size_t>(region)];
    const FindingKind fk = kind == simt::AccessKind::Read
                               ? FindingKind::OobRead
                               : FindingKind::OobWrite;
    std::ostringstream note;
    note << "index " << index << " outside [0, " << r.elems << ") of '"
         << r.name << "' (" << r.elemBytes << "-byte elements)";
    addFinding(fk, r.name, index, decode(current_), ThreadId{},
               note.str());
}

} // namespace bt::check
