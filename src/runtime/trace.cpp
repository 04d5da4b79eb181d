#include "runtime/trace.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/json.hpp"
#include "common/logging.hpp"

namespace bt::runtime {

const char*
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::Stage:
        return "stage";
      case TraceEventKind::Transient:
        return "transient";
      case TraceEventKind::Timeout:
        return "timeout";
      case TraceEventKind::Straggler:
        return "straggler";
      case TraceEventKind::Retry:
        return "retry";
      case TraceEventKind::Remap:
        return "remap";
      case TraceEventKind::Dropout:
        return "dropout";
      case TraceEventKind::Replan:
        return "replan";
      case TraceEventKind::Abandon:
        return "abandon";
    }
    return "unknown";
}

TraceEvent
makeFaultEvent(TraceEventKind kind, std::int64_t task, int stage,
               int chunk, int pu, double t0, double t1, double detail)
{
    TraceEvent e;
    e.task = task;
    e.stage = stage;
    e.chunk = chunk;
    e.pu = pu;
    e.startSeconds = t0;
    e.endSeconds = t1;
    e.kind = kind;
    e.detail = detail;
    return e;
}

double
TraceStats::coResidency(int a, int b) const
{
    const int n = static_cast<int>(perPu.size());
    BT_ASSERT(a >= 0 && a < n && b >= 0 && b < n);
    return coResidencySeconds[static_cast<std::size_t>(a * n + b)];
}

TraceTimeline::TraceTimeline(std::string backend, int num_pus,
                             NameTable pu_names, NameTable stage_names)
    : backend_(std::move(backend)), numPus_(num_pus),
      puNames_(std::move(pu_names)), stageNames_(std::move(stage_names))
{
    BT_ASSERT(numPus_ > 0);
    if (numPus_ > kMaxPus)
        BT_PANIC("trace.pu_mask", "timeline of ", numPus_,
                 " PU classes; co-runner masks hold at most ", kMaxPus);
}

void
TraceTimeline::merge(const TraceTimeline& other, double time_offset)
{
    if (numPus_ == 0) {
        // Default-constructed target: adopt the PU geometry.
        numPus_ = other.numPus_;
        puNames_ = other.puNames_;
        if (backend_ == "none")
            backend_ = "merged";
    }
    BT_ASSERT(other.numPus_ == numPus_,
              "merging timelines of different SoCs (", other.numPus_,
              " vs ", numPus_, " PU classes)");

    // other's name tables travel with its events: its merged tables
    // are appended wholesale, and its own stage names become one more
    // table that other's un-retargeted events are pointed at. A
    // session may therefore span several applications - each merged
    // run keeps resolving against the names it ran with.
    const int tableBase = static_cast<int>(mergedStageNames_.size());
    mergedStageNames_.insert(mergedStageNames_.end(),
                             other.mergedStageNames_.begin(),
                             other.mergedStageNames_.end());
    mergedStageNames_.push_back(other.stageNames_);
    const int ownTable
        = tableBase + static_cast<int>(other.mergedStageNames_.size());

    const int session = other.sessionId_;
    events_.reserve(events_.size() + other.events_.size());
    for (TraceEvent e : other.events_) {
        if (e.session < 0)
            e.session = session;
        e.nameTable = e.nameTable >= 0 ? e.nameTable + tableBase
                                       : ownTable;
        e.startSeconds += time_offset;
        e.endSeconds += time_offset;
        events_.push_back(std::move(e));
    }
}

void
TraceTimeline::sortByStart()
{
    // Stable insertion: each event moves past those before it that
    // start later.
    for (auto i = events_.begin(); i != events_.end(); ++i) {
        if (i == events_.begin()
            || !(std::prev(i)->startSeconds > i->startSeconds))
            continue;
        const TraceEvent event = *i;
        auto at = i;
        do {
            *at = *std::prev(at);
        } while (--at != events_.begin()
                 && std::prev(at)->startSeconds > event.startSeconds);
        *at = event;
    }
}

TraceStats
TraceTimeline::stats() const
{
    TraceStats st;
    st.perPu.resize(static_cast<std::size_t>(numPus_));
    st.coResidencySeconds.assign(
        static_cast<std::size_t>(numPus_ * numPus_), 0.0);
    if (events_.empty())
        return st;

    double interfered = 0.0;
    double wait = 0.0;
    for (const auto& e : events_) {
        if (!e.isStage()) {
            st.recoveryEvents += 1;
            continue;
        }
        BT_ASSERT(e.pu >= 0 && e.pu < numPus_, "event with bad PU");
        st.events += 1;
        const double d = e.durationSeconds();
        st.makespanSeconds = std::max(st.makespanSeconds, e.endSeconds);
        st.busySeconds += d;
        auto& pu = st.perPu[static_cast<std::size_t>(e.pu)];
        pu.busySeconds += d;
        pu.events += 1;
        if (e.coRunners != 0)
            interfered += d;
        wait += e.queueWaitSeconds;
    }
    st.interferedFraction
        = st.busySeconds > 0.0 ? interfered / st.busySeconds : 0.0;
    st.meanQueueWaitSeconds
        = st.events > 0 ? wait / static_cast<double>(st.events) : 0.0;

    int used_pus = 0;
    for (auto& pu : st.perPu) {
        if (pu.events == 0)
            continue;
        ++used_pus;
        pu.occupancy = st.makespanSeconds > 0.0
            ? pu.busySeconds / st.makespanSeconds
            : 0.0;
        st.bubbleSeconds += st.makespanSeconds - pu.busySeconds;
    }
    st.bubbleFraction = used_pus > 0 && st.makespanSeconds > 0.0
        ? st.bubbleSeconds / (used_pus * st.makespanSeconds)
        : 0.0;

    // Co-residency: sweep the event boundaries; between consecutive
    // boundaries the busy set is constant.
    std::vector<double> bounds;
    bounds.reserve(events_.size() * 2);
    for (const auto& e : events_) {
        if (!e.isStage())
            continue;
        bounds.push_back(e.startSeconds);
        bounds.push_back(e.endSeconds);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()),
                 bounds.end());
    std::vector<double> pu_busy(static_cast<std::size_t>(numPus_));
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
        const double t0 = bounds[i];
        const double t1 = bounds[i + 1];
        std::fill(pu_busy.begin(), pu_busy.end(), 0.0);
        for (const auto& e : events_)
            if (e.isStage() && e.startSeconds <= t0
                && e.endSeconds >= t1)
                pu_busy[static_cast<std::size_t>(e.pu)] = 1.0;
        for (int a = 0; a < numPus_; ++a) {
            if (pu_busy[static_cast<std::size_t>(a)] == 0.0)
                continue;
            for (int b = 0; b < numPus_; ++b)
                if (pu_busy[static_cast<std::size_t>(b)] > 0.0)
                    st.coResidencySeconds[static_cast<std::size_t>(
                        a * numPus_ + b)]
                        += t1 - t0;
        }
    }
    return st;
}

std::string
TraceTimeline::stageNameOf(const TraceEvent& e) const
{
    const NameTable& names
        = e.nameTable >= 0
            && e.nameTable < static_cast<int>(mergedStageNames_.size())
        ? mergedStageNames_[static_cast<std::size_t>(e.nameTable)]
        : stageNames_;
    std::string name = names && e.stage >= 0
            && e.stage < static_cast<int>(names->size())
        ? (*names)[static_cast<std::size_t>(e.stage)]
        : "stage" + std::to_string(e.stage);
    if (e.session >= 0)
        name = "s" + std::to_string(e.session) + ":" + name;
    return name;
}

void
TraceTimeline::writeChromeJson(std::ostream& os) const
{
    json::Writer w(os);
    w.beginObject().member("displayTimeUnit", "ms").key("otherData");
    w.beginObject().member("backend", backend_).member("numPus", numPus_);
    w.member("events", events_.size()).endObject();
    w.key("traceEvents").beginArray();

    // Name one chrome "thread" per PU class.
    for (int p = 0; p < numPus_; ++p) {
        const std::string name
            = puNames_ && p < static_cast<int>(puNames_->size())
            ? (*puNames_)[static_cast<std::size_t>(p)]
            : "pu" + std::to_string(p);
        w.beginObject().member("name", "thread_name").member("ph", "M");
        w.member("pid", 0).member("tid", p).key("args").beginObject();
        w.member("name", name).endObject().endObject();
    }

    for (const auto& e : events_) {
        if (!e.isStage()) {
            // Recovery incidents export as process-scoped instants so
            // they show up as markers above the PU rows.
            w.beginObject().member("name", traceEventKindName(e.kind));
            w.member("cat", "fault").member("ph", "i").member("s", "p");
            w.member("pid", 0).member("tid", std::max(e.pu, 0));
            w.member("ts", e.startSeconds * 1e6).key("args").beginObject();
            w.member("task", e.task).member("stage", e.stage);
            w.member("chunk", e.chunk).member("pu", e.pu);
            if (e.session >= 0)
                w.member("session", e.session);
            // The note is rendered from the incident's one number.
            std::string note;
            if (e.kind == TraceEventKind::Remap)
                note = detail::concat("pu ", static_cast<int>(e.detail),
                                      " -> ", e.pu);
            else if (e.kind == TraceEventKind::Retry)
                note = detail::concat("attempt ",
                                      static_cast<int>(e.detail));
            else if (e.kind == TraceEventKind::Straggler)
                note = "x" + std::to_string(e.detail); // six decimals
            w.member("note", note).endObject().endObject();
            continue;
        }
        w.beginObject().member("name", stageNameOf(e));
        w.member("cat", "stage").member("ph", "X").member("pid", 0);
        w.member("tid", e.pu).member("ts", e.startSeconds * 1e6);
        w.member("dur", e.durationSeconds() * 1e6).key("args").beginObject();
        w.member("task", e.task).member("stage", e.stage);
        w.member("chunk", e.chunk);
        if (e.session >= 0)
            w.member("session", e.session);
        w.member("queue_wait_us", e.queueWaitSeconds * 1e6);
        w.key("co_runners").beginArray();
        for (std::uint64_t left = e.coRunners; left != 0;
             left &= left - 1)
            w.value(std::countr_zero(left));
        w.endArray().endObject().endObject();
    }
    w.endArray().endObject();
}

std::string
TraceTimeline::chromeJson() const
{
    std::ostringstream os;
    writeChromeJson(os);
    return os.str();
}

} // namespace bt::runtime
