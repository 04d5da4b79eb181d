#include "runtime/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <istream>
#include <limits>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"

namespace bt::runtime {

namespace {

/** Domain tags keeping the fault streams independent of each other and
 *  of the measurement-noise stream (which uses small domain ids). */
constexpr std::uint64_t kTransientDomain = 0xfa17'0001ull;
constexpr std::uint64_t kStragglerDomain = 0xfa17'0002ull;

double
faultDraw(std::uint64_t seed, std::uint64_t domain, std::int64_t task,
          int stage, int attempt)
{
    const std::uint64_t key = hashCombine(
        hashCombine(hashCombine(seed ^ domain,
                                static_cast<std::uint64_t>(task)),
                    static_cast<std::uint64_t>(stage)),
        static_cast<std::uint64_t>(attempt));
    return Rng(key).nextDouble();
}

/** The numeric field @p name of a plan row, or @p fallback. */
double
field(const json::Value& row, const char* name, double fallback)
{
    const json::Value* v = row.find(name);
    return v ? v->number : fallback;
}

bool
contains(std::initializer_list<const char*> names,
         const std::string& name)
{
    for (const char* n : names)
        if (name == n)
            return true;
    return false;
}

/** "<section>[<index>].<name>" / "<section>[<index>]" (no name). */
std::string
rowRef(const char* section, std::size_t index, const char* name)
{
    return detail::concat(section, '[', index, ']', name ? "." : "",
                          name ? name : "");
}

/**
 * Strict row shape check: the row is an object of numbers, every field
 * in @p required is present, and every field present is in @p required
 * or @p optional.
 */
bool
checkRow(const json::Value& row, const char* section, std::size_t index,
         std::initializer_list<const char*> required,
         std::initializer_list<const char*> optional,
         PlanParseError& err)
{
    const auto refuse = [&](PlanParseErrorKind kind, const auto&... parts) {
        err = {kind, detail::concat(rowRef(section, index, nullptr),
                                    parts...)};
        return false;
    };
    const auto numeric = [](const json::Member& m) {
        return m.value.kind == json::Value::Kind::Number;
    };
    if (row.kind != json::Value::Kind::Object
        || !std::all_of(row.members.begin(), row.members.end(), numeric))
        return refuse(PlanParseErrorKind::Syntax,
                      " must be an object of numbers");
    for (const char* name : required)
        if (row.find(name) == nullptr)
            return refuse(PlanParseErrorKind::MissingField,
                          " is missing required field \"", name, '"');
    for (const auto& m : row.members)
        if (!contains(required, m.name) && !contains(optional, m.name))
            return refuse(PlanParseErrorKind::UnknownField,
                          " has unknown field \"", m.name, '"');
    return true;
}

/** A PU / stage id field must be a whole number that fits an int -
 *  1.5 as a PU id is a plan bug, not a cast. Its range is a rule of
 *  FaultPlan::problems. */
bool
checkId(double v, const char* section, std::size_t index,
        const char* name, PlanParseError& err)
{
    if (std::trunc(v) == v
        && std::abs(v) <= std::numeric_limits<int>::max())
        return true;
    err = {PlanParseErrorKind::Range,
           detail::concat(rowRef(section, index, name),
                          " must be a whole number, got ", v)};
    return false;
}

/** Append row @p i of @p section (a known section) to @p plan; false,
 *  with @p err set, when the row breaks a shape rule. */
bool
addRow(FaultPlan& plan, const std::string& section, std::size_t i,
       const json::Value& row, PlanParseError& err)
{
    const char* s = section.c_str();
    if (section == "slowdowns") {
        if (!checkRow(row, s, i, {"pu", "start", "end"}, {"clockFactor"},
                      err)
            || !checkId(field(row, "pu", 0), s, i, "pu", err))
            return false;
        plan.slowdowns.push_back(
            {static_cast<int>(field(row, "pu", 0)),
             field(row, "start", 0.0), field(row, "end", 0.0),
             field(row, "clockFactor", 0.5)});
    } else if (section == "transients") {
        if (!checkRow(row, s, i, {"probability"}, {"stage", "pu"}, err)
            || !checkId(field(row, "stage", -1), s, i, "stage", err)
            || !checkId(field(row, "pu", -1), s, i, "pu", err))
            return false;
        plan.transients.push_back(
            {static_cast<int>(field(row, "stage", -1)),
             static_cast<int>(field(row, "pu", -1)),
             field(row, "probability", 0.0)});
    } else if (section == "stragglers") {
        if (!checkRow(row, s, i, {"probability"}, {"stage", "factor"},
                      err)
            || !checkId(field(row, "stage", -1), s, i, "stage", err))
            return false;
        plan.stragglers.push_back(
            {static_cast<int>(field(row, "stage", -1)),
             field(row, "probability", 0.0), field(row, "factor", 8.0)});
    } else {
        if (!checkRow(row, s, i, {"pu", "at"}, {}, err)
            || !checkId(field(row, "pu", 0), s, i, "pu", err))
            return false;
        plan.dropouts.push_back(
            {static_cast<int>(field(row, "pu", 0)), field(row, "at", 0.0)});
    }
    return true;
}

/** faultSeed is a whole number in [0, 2^64). A plain integer literal is
 *  read exactly - through a double, 2^53 + 1 would round - and other
 *  spellings ("7.0", "1e3") through the double. */
bool
readSeed(const json::Value& v, std::uint64_t& seed, PlanParseError& err)
{
    const double d = v.number;
    if (v.kind != json::Value::Kind::Number) {
        err = {PlanParseErrorKind::Syntax, "faultSeed must be a number"};
        return false;
    }
    if (const auto exact = v.exactUnsigned()) {
        seed = *exact;
        return true;
    }
    if (d >= 0.0 && d < 0x1p64 && std::trunc(d) == d) {
        seed = static_cast<std::uint64_t>(d);
        return true;
    }
    err = {PlanParseErrorKind::Range,
           "faultSeed must be a whole number in [0, 2^64), got " + v.text};
    return false;
}

/** Append a Range problem "<section>[<index>].<name> must be ...". */
template <typename... Parts>
void
rangeProblem(std::vector<PlanParseError>& out, const char* section,
             std::size_t index, const char* name, const Parts&... parts)
{
    out.push_back({PlanParseErrorKind::Range,
                   detail::concat(rowRef(section, index, name),
                                  " must be ", parts...)});
}

/** Id rule: @p v in [floor, count), or v >= floor when the count is
 *  unknown (<= 0). A floor of -1 is the "any" wildcard. */
void
idRule(std::vector<PlanParseError>& out, const char* section,
       std::size_t index, const char* name, int v, int floor, int count)
{
    if (v < floor)
        rangeProblem(out, section, index, name, ">= ", floor, ", got ",
                     v);
    else if (count > 0 && v >= count)
        rangeProblem(out, section, index, name, "in [", floor, ", ",
                     count, "), got ", v);
}

void
probabilityRule(std::vector<PlanParseError>& out, const char* section,
                std::size_t index, double p)
{
    if (!(p >= 0.0 && p <= 1.0))
        rangeProblem(out, section, index, "probability",
                     "in [0, 1], got ", p);
}

} // namespace

std::string_view
planParseErrorKindName(PlanParseErrorKind kind)
{
    switch (kind) {
      case PlanParseErrorKind::Syntax: return "syntax";
      case PlanParseErrorKind::UnknownSection: return "unknown_section";
      case PlanParseErrorKind::UnknownField: return "unknown_field";
      case PlanParseErrorKind::MissingField: return "missing_field";
      case PlanParseErrorKind::Range: return "range";
      case PlanParseErrorKind::Overlap: return "overlap";
    }
    return "?";
}

std::string
PlanParseError::toString() const
{
    std::string text("[");
    text += planParseErrorKindName(kind);
    text += "] ";
    text += message;
    return text;
}

std::string
rangeErrors(const std::vector<PlanParseError>& problems)
{
    std::string text;
    for (const auto& p : problems) {
        if (p.kind != PlanParseErrorKind::Range)
            continue;
        if (!text.empty())
            text += "; ";
        text += p.message;
    }
    return text;
}

std::vector<PlanParseError>
FaultPlan::problems(int num_pus, int num_stages) const
{
    std::vector<PlanParseError> out;
    for (std::size_t i = 0; i < slowdowns.size(); ++i) {
        const auto& w = slowdowns[i];
        idRule(out, "slowdowns", i, "pu", w.pu, 0, num_pus);
        if (!(w.startSeconds >= 0.0))
            rangeProblem(out, "slowdowns", i, "start", ">= 0, got ",
                         w.startSeconds);
        if (!(w.endSeconds > w.startSeconds))
            rangeProblem(out, "slowdowns", i, "end", "> start ",
                         w.startSeconds, ", got ", w.endSeconds);
        if (!(w.clockFactor > 0.0 && w.clockFactor <= 1.0))
            rangeProblem(out, "slowdowns", i, "clockFactor",
                         "in (0, 1], got ", w.clockFactor);
    }
    // Same-PU overlapping windows compound multiplicatively at run
    // time, which is nearly always an authoring mistake.
    for (std::size_t a = 0; a < slowdowns.size(); ++a) {
        for (std::size_t b = a + 1; b < slowdowns.size(); ++b) {
            const auto& wa = slowdowns[a];
            const auto& wb = slowdowns[b];
            if (wa.pu == wb.pu && wa.startSeconds < wb.endSeconds
                && wb.startSeconds < wa.endSeconds)
                out.push_back({PlanParseErrorKind::Overlap,
                               detail::concat(
                                   rowRef("slowdowns", a, nullptr),
                                   " and ",
                                   rowRef("slowdowns", b, nullptr),
                                   " overlap on pu ", wa.pu,
                                   "; their clock factors compound - "
                                   "merge them if one throttling "
                                   "episode was meant")});
        }
    }
    for (std::size_t i = 0; i < transients.size(); ++i) {
        const auto& t = transients[i];
        idRule(out, "transients", i, "stage", t.stage, -1, num_stages);
        idRule(out, "transients", i, "pu", t.pu, -1, num_pus);
        probabilityRule(out, "transients", i, t.probability);
    }
    for (std::size_t i = 0; i < stragglers.size(); ++i) {
        const auto& s = stragglers[i];
        idRule(out, "stragglers", i, "stage", s.stage, -1, num_stages);
        probabilityRule(out, "stragglers", i, s.probability);
        if (!(s.factor >= 1.0))
            rangeProblem(out, "stragglers", i, "factor", ">= 1, got ",
                         s.factor);
    }
    for (std::size_t i = 0; i < dropouts.size(); ++i) {
        const auto& d = dropouts[i];
        idRule(out, "dropouts", i, "pu", d.pu, 0, num_pus);
        if (!(d.atSeconds >= 0.0))
            rangeProblem(out, "dropouts", i, "at", ">= 0, got ",
                         d.atSeconds);
    }
    return out;
}

std::optional<FaultPlan>
FaultPlan::fromJson(std::istream& is, PlanParseError& err)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    json::Error jerr;
    const auto doc = json::parse(buf.str(), jerr);
    if (!doc || doc->kind != json::Value::Kind::Object) {
        err = {PlanParseErrorKind::Syntax,
               doc ? "a fault plan is one JSON object"
                   : "not valid JSON: " + jerr.toString()};
        return std::nullopt;
    }

    FaultPlan plan;
    for (const auto& [name, value] : doc->members) {
        if (name == "faultSeed") {
            if (!readSeed(value, plan.faultSeed, err))
                return std::nullopt;
            continue;
        }
        const bool rows = value.kind == json::Value::Kind::Array;
        if (!contains({"slowdowns", "transients", "stragglers",
                       "dropouts"},
                      name)) {
            err = {PlanParseErrorKind::UnknownSection,
                   detail::concat("unknown ",
                                  rows ? "section" : "scalar member",
                                  " \"", name, '"')};
            return std::nullopt;
        }
        if (!rows) {
            err = {PlanParseErrorKind::Syntax,
                   detail::concat("section \"", name,
                                  "\" must be an array of rows")};
            return std::nullopt;
        }
        for (std::size_t i = 0; i < value.items.size(); ++i)
            if (!addRow(plan, name, i, value.items[i], err))
                return std::nullopt;
    }

    // Domains and overlaps are the plan's own rules; the parser knows
    // neither the device nor the app, so only the lower bounds apply.
    auto problems = plan.problems(0, 0);
    if (!problems.empty()) {
        err = std::move(problems.front());
        return std::nullopt;
    }
    return plan;
}

std::optional<FaultPlan>
FaultPlan::fromJson(std::istream& is)
{
    PlanParseError err;
    return fromJson(is, err);
}

void
FaultPlan::toJson(std::ostream& os) const
{
    json::Writer w(os);
    w.beginObject().key("slowdowns").beginArray();
    for (const auto& sw : slowdowns) {
        w.beginObject().member("pu", sw.pu).member("start", sw.startSeconds);
        w.member("end", sw.endSeconds);
        w.member("clockFactor", sw.clockFactor).endObject();
    }
    w.endArray().key("transients").beginArray();
    for (const auto& t : transients) {
        w.beginObject().member("stage", t.stage).member("pu", t.pu);
        w.member("probability", t.probability).endObject();
    }
    w.endArray().key("stragglers").beginArray();
    for (const auto& st : stragglers) {
        w.beginObject().member("stage", st.stage);
        w.member("probability", st.probability);
        w.member("factor", st.factor).endObject();
    }
    w.endArray().key("dropouts").beginArray();
    for (const auto& d : dropouts) {
        w.beginObject().member("pu", d.pu);
        w.member("at", d.atSeconds).endObject();
    }
    w.endArray().member("faultSeed", faultSeed).endObject();
}

void
RecoveryStats::add(const RecoveryStats& other)
{
    transientFaults += other.transientFaults;
    timeouts += other.timeouts;
    stragglers += other.stragglers;
    retries += other.retries;
    remaps += other.remaps;
    dropouts += other.dropouts;
    replans += other.replans;
    unrecovered += other.unrecovered;
    backoffSeconds += other.backoffSeconds;
}

FaultInjector::FaultInjector(const FaultPlan& plan,
                             std::uint64_t mixed_seed)
    : plan_(plan), seed_(mixed_seed ^ plan.faultSeed)
{
}

bool
FaultInjector::transientFailure(std::int64_t task, int stage, int pu,
                                int attempt) const
{
    double p = 0.0;
    for (const auto& rule : plan_.transients) {
        if (rule.stage >= 0 && rule.stage != stage)
            continue;
        if (rule.pu >= 0 && rule.pu != pu)
            continue;
        p = std::max(p, rule.probability);
    }
    if (p <= 0.0)
        return false;
    // Fold the PU into the draw: after a failover remap the same
    // (task, stage, attempt) coordinates must redraw on the new PU, or
    // an attempt sequence that exhausted its retries would replay the
    // identical failures there and failover could never succeed.
    return faultDraw(seed_ ^ (0x9e3779b97f4a7c15ull
                              * static_cast<std::uint64_t>(pu + 1)),
                     kTransientDomain, task, stage, attempt)
        < p;
}

double
FaultInjector::stragglerFactor(std::int64_t task, int stage,
                               int attempt) const
{
    double factor = 1.0;
    for (const auto& rule : plan_.stragglers) {
        if (rule.stage >= 0 && rule.stage != stage)
            continue;
        if (rule.probability <= 0.0)
            continue;
        if (faultDraw(seed_, kStragglerDomain, task, stage, attempt)
            < rule.probability)
            factor = std::max(factor, rule.factor);
    }
    return factor;
}

double
FaultInjector::slowdownFactor(int pu, double now) const
{
    double factor = 1.0;
    for (const auto& w : plan_.slowdowns)
        if (w.pu == pu && now >= w.startSeconds && now < w.endSeconds)
            factor *= w.clockFactor;
    return factor;
}

double
FaultInjector::nextSlowdownBoundary(double now) const
{
    double next = std::numeric_limits<double>::infinity();
    for (const auto& w : plan_.slowdowns) {
        if (w.startSeconds > now)
            next = std::min(next, w.startSeconds);
        if (w.endSeconds > now)
            next = std::min(next, w.endSeconds);
    }
    return next;
}

} // namespace bt::runtime
