/**
 * @file
 * Structured trace timeline for pipeline executions (paper Sec. 3.4's
 * BT-Implementer, made observable).
 *
 * Every backend of the unified runtime records one TraceEvent per stage
 * execution: which task, stage, chunk and PU ran, how long the token
 * waited in front of the dispatcher, when the stage started and ended
 * in the backend's own time domain (virtual seconds for the DES, wall
 * seconds for the host), and which other PUs were busy at the moment it
 * started (the instantaneous co-runner set the interference model - and
 * D-Shim-style contention analyses - care about), as a PU bitmask so
 * recording a stage allocates nothing.
 *
 * The timeline exports to the Chrome chrome://tracing JSON format and
 * derives occupancy / pipeline-bubble / interference statistics plus a
 * PU x PU co-residency matrix.
 */

#ifndef BT_RUNTIME_TRACE_HPP
#define BT_RUNTIME_TRACE_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

namespace bt::runtime {

/**
 * What a TraceEvent records: a stage execution (the default, and the
 * only kind fault-free runs emit) or one of the fault-injection /
 * recovery incidents of the fault-tolerant runtime.
 */
enum class TraceEventKind
{
    Stage,     ///< one stage execution on one PU
    Transient, ///< injected transient failure of an attempt
    Timeout,   ///< attempt exceeded its timeout budget and was aborted
    Straggler, ///< attempt inflated by a straggler factor (completed)
    Retry,     ///< failed attempt re-dispatched after backoff
    Remap,     ///< chunk failed over to the profiled next-best PU
    Dropout,   ///< PU removed from service at a timestamp
    Replan,    ///< remaining schedule re-optimized on surviving PUs
    Abandon,   ///< retries exhausted or no PU left; task unrecovered
};

/** Stable lowercase name of a TraceEventKind ("stage", "retry", ...). */
const char* traceEventKindName(TraceEventKind kind);

struct TraceEvent;

/** Convenience constructor for a typed recovery incident. */
TraceEvent makeFaultEvent(TraceEventKind kind, std::int64_t task,
                          int stage, int chunk, int pu, double t0,
                          double t1, double detail = 0.0);

/** One stage execution on one PU. */
struct TraceEvent
{
    std::int64_t task = -1; ///< streaming input index
    int stage = -1;         ///< stage index within the application
    int chunk = -1;         ///< dispatcher index (= PU for greedy runs)
    int pu = -1;            ///< PU class that executed the stage

    /** Ready/enqueue to start: time the token waited for this chunk. */
    double queueWaitSeconds = 0.0;
    double startSeconds = 0.0;
    double endSeconds = 0.0;

    /** Other PUs busy when this execution started: bit p set = PU
     *  class p was busy (a timeline has at most 64 PU classes). */
    std::uint64_t coRunners = 0;

    /** Stage for ordinary executions; a recovery incident otherwise.
     *  (Appended after the original fields so existing aggregate
     *  initializers keep meaning what they meant.) */
    TraceEventKind kind = TraceEventKind::Stage;

    /**
     * The one number a recovery incident carries: the from-PU of a
     * Remap, the attempt number of a Retry, the factor of a Straggler
     * (0 otherwise). The Chrome export renders it as the "note" text.
     */
    double detail = 0.0;

    /**
     * Concurrent-serving session that produced this event, or -1 for
     * single-pipeline runs. Stamped at record time from the timeline's
     * session id, preserved across TraceTimeline::merge so events from
     * co-scheduled sessions stay distinguishable.
     */
    int session = -1;

    /**
     * Index into the merged timeline's per-merge stage-name tables, or
     * -1 for events whose names resolve through the timeline's own
     * stage names. Maintained by TraceTimeline::merge; callers never
     * set it.
     */
    int nameTable = -1;

    double durationSeconds() const { return endSeconds - startSeconds; }
    bool isStage() const { return kind == TraceEventKind::Stage; }
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "trace events are recorded, merged and sorted by copy");

/** Per-PU aggregate over a timeline. */
struct PuTraceStats
{
    double busySeconds = 0.0;
    double occupancy = 0.0; ///< busySeconds / makespan
    int events = 0;
};

/** Derived whole-timeline statistics. */
struct TraceStats
{
    double makespanSeconds = 0.0; ///< latest event end
    double busySeconds = 0.0;     ///< total stage-execution time
    int events = 0;               ///< stage executions only

    /** Non-Stage events (faults, retries, remaps, ...). */
    int recoveryEvents = 0;

    /** Idle time on PUs that executed at least one stage. */
    double bubbleSeconds = 0.0;
    /** bubbleSeconds / (used PUs * makespan); 0 = perfectly packed. */
    double bubbleFraction = 0.0;

    /** Fraction of busy time that started with >= 1 co-runner. */
    double interferedFraction = 0.0;

    double meanQueueWaitSeconds = 0.0;

    std::vector<PuTraceStats> perPu;

    /**
     * Seconds PU a and PU b were simultaneously busy, row-major
     * (numPus * numPus); the diagonal holds each PU's busy time.
     */
    std::vector<double> coResidencySeconds;

    double coResidency(int a, int b) const;
};

/** Ordered record of every stage execution in one pipeline run. */
class TraceTimeline
{
  public:
    TraceTimeline() = default;
    /** Largest PU count a timeline supports (coRunners is a mask). */
    static constexpr int kMaxPus = 64;

    /** @p num_pus must be in [1, kMaxPus]. */
    TraceTimeline(std::string backend, int num_pus,
                  std::vector<std::string> pu_names,
                  std::vector<std::string> stage_names);

    /** Backend that produced the timeline ("virtual" or "host"). */
    const std::string& backend() const { return backend_; }

    /**
     * Tag this timeline as belonging to serving session @p id (>= 0).
     * Subsequently recorded events are stamped with the id, and the
     * Chrome export prefixes event names with "s<id>:" so merged
     * multi-session traces stay readable. -1 (the default) leaves the
     * single-pipeline export format unchanged.
     */
    void setSessionId(int id) { sessionId_ = id; }
    int sessionId() const { return sessionId_; }

    /**
     * Fold another session's timeline into this one: every event of
     * @p other is appended, shifted by @p time_offset seconds (so
     * callers can place independently-clocked sessions on one shared
     * service clock) and stamped with other.sessionId() if not already
     * session-tagged. other's stage-name tables travel with its events
     * (one table per merged run), so merged events keep resolving to
     * the right names even when one session's requests span several
     * applications. Both timelines must describe the same SoC (same PU
     * count); an empty default-constructed target adopts other's PU
     * geometry. Call sortByStart() after the last merge.
     */
    void merge(const TraceTimeline& other, double time_offset = 0.0);

    int numPus() const { return numPus_; }
    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }
    const std::vector<TraceEvent>& events() const { return events_; }

    /** Append one stage execution (callers serialize access). */
    void record(TraceEvent event);

    /** Order events by start time (host backends record concurrently). */
    void sortByStart();

    /** Derive occupancy / bubble / interference statistics. */
    TraceStats stats() const;

    /**
     * Write the timeline as a Chrome trace-event JSON object
     * (chrome://tracing / Perfetto "JSON Array Format" with metadata).
     * Times are exported in microseconds, one row per PU.
     */
    void writeChromeJson(std::ostream& os) const;

    /** writeChromeJson into a string. */
    std::string chromeJson() const;

  private:
    /** Display name of @p e's stage, session-aware after merges. */
    std::string stageNameOf(const TraceEvent& e) const;

    std::string backend_ = "none";
    int numPus_ = 0;
    int sessionId_ = -1;
    std::vector<std::string> puNames_;
    std::vector<std::string> stageNames_;

    /** Stage-name tables of merged runs, indexed by event.nameTable. */
    std::vector<std::vector<std::string>> mergedStageNames_;

    std::vector<TraceEvent> events_;
};

} // namespace bt::runtime

#endif // BT_RUNTIME_TRACE_HPP
