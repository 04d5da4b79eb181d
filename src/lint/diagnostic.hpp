/**
 * @file
 * Typed diagnostics of bt::lint - the static analyzer's counterpart to
 * bt::check's Finding/Report pair.
 *
 * A Diagnostic names one statically-detected defect: its kind (a closed
 * enum with stable machine-readable names), a severity, the subject it
 * was found in (application, schedule, spec, run config, fault plan or
 * tenant), and the ids needed to locate it (stage, chunk, PU, buffer).
 * Diagnostics are deterministic: every pass visits its inputs in
 * declaration order and never hashes, so repeated runs - from any
 * number of threads - produce byte-identical reports.
 *
 * Report mirrors bt::check::Report (clean/summary/print/writeJson/
 * merge), so sweep drivers like bt_explorer can treat static and
 * dynamic analysis uniformly.
 */

#ifndef BT_LINT_DIAGNOSTIC_HPP
#define BT_LINT_DIAGNOSTIC_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace bt::lint {

/** Every defect class the analyzer can report. */
enum class DiagnosticKind
{
    // Pass 1: graph/buffer analysis over declared stage IO.
    UseBeforeDef,     ///< stage reads a buffer no earlier stage defines
    DeadOutput,       ///< buffer written but never consumed
    SizeMismatch,     ///< producer/consumer disagree on buffer bytes
    AliasHazard,      ///< cross-task shared buffer written by a stage
    UnknownBuffer,    ///< stage IO names an undeclared buffer
    NoIoDeclarations, ///< app has no static IO metadata (pass skipped)

    // Pass 2: schedule validity.
    ScheduleCoverage,   ///< stages uncovered/overlapping/non-contiguous
    UnknownPu,          ///< chunk assigned to a PU absent from the SoC
    DisallowedPu,       ///< chunk assigned outside allowedPus/lease

    // Pass 3: handoff/deadlock lint.
    QueueUndersized,    ///< bounded handoff queue can wedge the pipeline
    PipelineUnderfilled, ///< fewer in-flight buffers than chunks
    WarmupExceedsTasks, ///< steady-state window is empty

    // Spec/run-config scalar ranges.
    SpecRange, ///< planner-spec or run-config knob out of range

    // Pass 4: fault-plan consistency.
    FaultRange,           ///< fault-plan field out of range
    DropoutStarvation,    ///< dropouts leave zero capable PUs
    WatchdogTooTight,     ///< timeout factor <= 1 cancels clean runs
    OverlappingSlowdowns, ///< windows compound on one PU

    // Pass 5: contention/lease feasibility.
    BandwidthOverBudget, ///< C6 demand lower bound exceeds the budget
    LeaseUncovered,      ///< lease admits no usable PU class
    RealTimeShared,      ///< realTime tenant shares with unbounded ones
};

/** Stable machine-readable kind name ("use_before_def", ...). */
std::string_view diagnosticKindName(DiagnosticKind kind);

/** How bad it is. Errors veto deployment; Info never affects clean(). */
enum class Severity
{
    Info,
    Warn,
    Error,
};

/** "info" / "warn" / "error". */
std::string_view severityName(Severity severity);

/** One statically-detected defect. */
struct Diagnostic
{
    DiagnosticKind kind{};
    Severity severity = Severity::Error;
    std::string subject; ///< app/tenant name, "schedule", "spec", ...
    std::string buffer;  ///< buffer name (graph pass), else empty
    int stage = -1;      ///< stage index, -1 = not stage-specific
    int chunk = -1;      ///< chunk index, -1 = not chunk-specific
    int pu = -1;         ///< PU class index, -1 = not PU-specific
    std::string message; ///< human-readable description + remediation

    /** e.g. "error[use_before_def] octree/sort: buffer 'x' ...". */
    std::string toString() const;
};

/** What the analyzer looked at (merged across passes and subjects). */
struct LintStats
{
    int subjects = 0;   ///< applications/tenants analyzed
    int stages = 0;     ///< stages walked by the graph pass
    int buffers = 0;    ///< declared buffers examined
    int chunks = 0;     ///< schedule chunks examined
    int faultRules = 0; ///< fault-plan entries examined
    int passes = 0;     ///< pass executions folded into this report

    void add(const LintStats& other);
};

/** The folded result of one or more lint passes. */
struct Report
{
    std::vector<Diagnostic> diagnostics;
    LintStats stats;

    int errors() const;
    int warnings() const;
    int infos() const;

    /** No errors and no warnings (Info diagnostics are allowed). */
    bool clean() const { return errors() == 0 && warnings() == 0; }

    /** One-line human summary. */
    std::string summary() const;

    /** Full human-readable listing. */
    void print(std::ostream& os) const;

    /** Machine-readable report (a JSON object). */
    void writeJson(std::ostream& os) const;

    /** Append another report's diagnostics and stats. Concatenation,
     *  so merging is associative and order-preserving. */
    void merge(Report other);
};

} // namespace bt::lint

#endif // BT_LINT_DIAGNOSTIC_HPP
