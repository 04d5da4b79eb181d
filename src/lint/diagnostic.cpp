#include "lint/diagnostic.hpp"

#include <iterator>
#include <ostream>
#include <sstream>

#include "common/json.hpp"
#include "common/logging.hpp"

namespace bt::lint {

std::string_view
diagnosticKindName(DiagnosticKind kind)
{
    switch (kind) {
    case DiagnosticKind::UseBeforeDef: return "use_before_def";
    case DiagnosticKind::DeadOutput: return "dead_output";
    case DiagnosticKind::SizeMismatch: return "size_mismatch";
    case DiagnosticKind::AliasHazard: return "alias_hazard";
    case DiagnosticKind::UnknownBuffer: return "unknown_buffer";
    case DiagnosticKind::NoIoDeclarations: return "no_io_declarations";
    case DiagnosticKind::ScheduleCoverage: return "schedule_coverage";
    case DiagnosticKind::UnknownPu: return "unknown_pu";
    case DiagnosticKind::DisallowedPu: return "disallowed_pu";
    case DiagnosticKind::QueueUndersized: return "queue_undersized";
    case DiagnosticKind::PipelineUnderfilled:
        return "pipeline_underfilled";
    case DiagnosticKind::WarmupExceedsTasks:
        return "warmup_exceeds_tasks";
    case DiagnosticKind::SpecRange: return "spec_range";
    case DiagnosticKind::FaultRange: return "fault_range";
    case DiagnosticKind::DropoutStarvation:
        return "dropout_starvation";
    case DiagnosticKind::WatchdogTooTight: return "watchdog_too_tight";
    case DiagnosticKind::OverlappingSlowdowns:
        return "overlapping_slowdowns";
    case DiagnosticKind::BandwidthOverBudget:
        return "bandwidth_over_budget";
    case DiagnosticKind::LeaseUncovered: return "lease_uncovered";
    case DiagnosticKind::RealTimeShared: return "real_time_shared";
    }
    BT_PANIC("lint.kind", "unknown DiagnosticKind ",
             static_cast<int>(kind));
}

std::string_view
severityName(Severity severity)
{
    switch (severity) {
    case Severity::Info: return "info";
    case Severity::Warn: return "warn";
    case Severity::Error: return "error";
    }
    BT_PANIC("lint.severity", "unknown Severity ",
             static_cast<int>(severity));
}

std::string
Diagnostic::toString() const
{
    std::ostringstream os;
    os << severityName(severity) << '[' << diagnosticKindName(kind)
       << "] " << subject;
    if (!buffer.empty())
        os << " buffer '" << buffer << '\'';
    if (stage >= 0)
        os << " stage " << stage;
    if (chunk >= 0)
        os << " chunk " << chunk;
    if (pu >= 0)
        os << " pu " << pu;
    os << ": " << message;
    return os.str();
}

void
LintStats::add(const LintStats& other)
{
    subjects += other.subjects;
    stages += other.stages;
    buffers += other.buffers;
    chunks += other.chunks;
    faultRules += other.faultRules;
    passes += other.passes;
}

int
Report::errors() const
{
    int n = 0;
    for (const auto& d : diagnostics)
        n += d.severity == Severity::Error ? 1 : 0;
    return n;
}

int
Report::warnings() const
{
    int n = 0;
    for (const auto& d : diagnostics)
        n += d.severity == Severity::Warn ? 1 : 0;
    return n;
}

int
Report::infos() const
{
    int n = 0;
    for (const auto& d : diagnostics)
        n += d.severity == Severity::Info ? 1 : 0;
    return n;
}

std::string
Report::summary() const
{
    std::ostringstream os;
    os << "lint: " << errors() << " error(s), " << warnings()
       << " warning(s), " << infos() << " info(s) across "
       << stats.subjects << " subject(s), " << stats.passes
       << " pass(es)";
    return os.str();
}

void
Report::print(std::ostream& os) const
{
    os << summary() << '\n';
    for (const auto& d : diagnostics)
        os << "  " << d.toString() << '\n';
}

void
Report::writeJson(std::ostream& os) const
{
    json::Writer w(os);
    w.beginObject().member("clean", clean()).member("errors", errors());
    w.member("warnings", warnings()).member("infos", infos());
    w.key("stats").beginObject().member("subjects", stats.subjects);
    w.member("stages", stats.stages).member("buffers", stats.buffers);
    w.member("chunks", stats.chunks).member("fault_rules", stats.faultRules);
    w.member("passes", stats.passes).endObject();
    w.key("diagnostics").beginArray();
    for (const auto& d : diagnostics) {
        w.beginObject().member("kind", diagnosticKindName(d.kind));
        w.member("severity", severityName(d.severity));
        w.member("subject", d.subject).member("buffer", d.buffer);
        w.member("stage", d.stage).member("chunk", d.chunk);
        w.member("pu", d.pu).member("message", d.message).endObject();
    }
    w.endArray().endObject();
}

void
Report::merge(Report other)
{
    diagnostics.insert(diagnostics.end(),
                       std::make_move_iterator(other.diagnostics.begin()),
                       std::make_move_iterator(other.diagnostics.end()));
    stats.add(other.stats);
}

} // namespace bt::lint
