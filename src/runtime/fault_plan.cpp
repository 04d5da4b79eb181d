#include "runtime/fault_plan.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <initializer_list>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <string>

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

/**
 * Minimal recursive-descent JSON reader for fault plans: one top-level
 * object whose members are either numbers or arrays of flat objects
 * with numeric fields. Anything else is a parse error.
 */
class PlanReader
{
  public:
    explicit PlanReader(std::istream& is)
    {
        std::ostringstream buf;
        buf << is.rdbuf();
        text_ = buf.str();
    }

    /** Parse the whole document into section -> list of field maps.
     *  Scalar top-level members land in @p scalars. */
    bool
    parse(std::map<std::string,
                   std::vector<std::map<std::string, double>>>& sections,
          std::map<std::string, double>& scalars)
    {
        pos_ = 0;
        ws();
        if (!expect('{'))
            return false;
        ws();
        if (peek() == '}')
            return ++pos_, tail();
        while (true) {
            std::string key;
            if (!string(key))
                return false;
            ws();
            if (!expect(':'))
                return false;
            ws();
            if (peek() == '[') {
                std::vector<std::map<std::string, double>> rows;
                if (!rowArray(rows))
                    return false;
                sections[key] = std::move(rows);
            } else {
                double v = 0.0;
                if (!number(v))
                    return false;
                scalars[key] = v;
            }
            ws();
            if (peek() == ',') {
                ++pos_;
                ws();
                continue;
            }
            break;
        }
        return expect('}') && tail();
    }

  private:
    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    ws()
    {
        while (pos_ < text_.size()
               && std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    expect(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    tail()
    {
        ws();
        return pos_ == text_.size();
    }

    bool
    string(std::string& out)
    {
        if (!expect('"'))
            return false;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"')
            out += text_[pos_++];
        return expect('"');
    }

    bool
    number(double& out)
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size()
               && (std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))
                   || text_[pos_] == '-' || text_[pos_] == '+'
                   || text_[pos_] == '.' || text_[pos_] == 'e'
                   || text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            return false;
        try {
            out = std::stod(text_.substr(start, pos_ - start));
        } catch (...) {
            return false;
        }
        return true;
    }

    bool
    rowArray(std::vector<std::map<std::string, double>>& rows)
    {
        if (!expect('['))
            return false;
        ws();
        if (peek() == ']')
            return ++pos_, true;
        while (true) {
            std::map<std::string, double> row;
            if (!object(row))
                return false;
            rows.push_back(std::move(row));
            ws();
            if (peek() == ',') {
                ++pos_;
                ws();
                continue;
            }
            break;
        }
        return expect(']');
    }

    bool
    object(std::map<std::string, double>& fields)
    {
        ws();
        if (!expect('{'))
            return false;
        ws();
        if (peek() == '}')
            return ++pos_, true;
        while (true) {
            std::string key;
            if (!string(key))
                return false;
            ws();
            if (!expect(':'))
                return false;
            ws();
            double v = 0.0;
            if (!number(v))
                return false;
            fields[key] = v;
            ws();
            if (peek() == ',') {
                ++pos_;
                ws();
                continue;
            }
            break;
        }
        return expect('}');
    }

    std::string text_;
    std::size_t pos_ = 0;
};

double
field(const std::map<std::string, double>& row, const char* name,
      double fallback)
{
    const auto it = row.find(name);
    return it == row.end() ? fallback : it->second;
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
 * Strict row shape check: every field in @p required must be present,
 * and every field present must be in @p required or @p optional.
 */
bool
checkRow(const std::map<std::string, double>& row, const char* section,
         std::size_t index, std::initializer_list<const char*> required,
         std::initializer_list<const char*> optional,
         PlanParseError& err)
{
    for (const char* name : required) {
        if (row.count(name) == 0) {
            err = {PlanParseErrorKind::MissingField,
                   detail::concat(rowRef(section, index, nullptr),
                                  " is missing required field \"",
                                  name, '"')};
            return false;
        }
    }
    for (const auto& [name, value] : row) {
        (void)value;
        if (!contains(required, name) && !contains(optional, name)) {
            err = {PlanParseErrorKind::UnknownField,
                   detail::concat(rowRef(section, index, nullptr),
                                  " has unknown field \"", name, '"')};
            return false;
        }
    }
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
    PlanReader reader(is);
    std::map<std::string, std::vector<std::map<std::string, double>>>
        sections;
    std::map<std::string, double> scalars;
    if (!reader.parse(sections, scalars)) {
        err.kind = PlanParseErrorKind::Syntax;
        err.message = "not the documented fault-plan JSON subset (one "
                      "object of numeric scalars and arrays of flat "
                      "numeric objects)";
        return std::nullopt;
    }
    for (const auto& [name, rows] : sections) {
        (void)rows;
        if (!contains({"slowdowns", "transients", "stragglers",
                       "dropouts"},
                      name)) {
            err = {PlanParseErrorKind::UnknownSection,
                   detail::concat("unknown section \"", name, '"')};
            return std::nullopt;
        }
    }
    for (const auto& [name, value] : scalars) {
        (void)value;
        if (name != "faultSeed") {
            err = {PlanParseErrorKind::UnknownSection,
                   detail::concat("unknown scalar member \"", name, '"')};
            return std::nullopt;
        }
    }

    FaultPlan plan;
    std::size_t i = 0;
    for (const auto& row : sections["slowdowns"]) {
        if (!checkRow(row, "slowdowns", i, {"pu", "start", "end"},
                      {"clockFactor"}, err)
            || !checkId(field(row, "pu", 0), "slowdowns", i, "pu", err))
            return std::nullopt;
        plan.slowdowns.push_back(
            {static_cast<int>(field(row, "pu", 0)),
             field(row, "start", 0.0), field(row, "end", 0.0),
             field(row, "clockFactor", 0.5)});
        ++i;
    }
    i = 0;
    for (const auto& row : sections["transients"]) {
        if (!checkRow(row, "transients", i, {"probability"},
                      {"stage", "pu"}, err)
            || !checkId(field(row, "stage", -1), "transients", i,
                        "stage", err)
            || !checkId(field(row, "pu", -1), "transients", i, "pu",
                        err))
            return std::nullopt;
        plan.transients.push_back(
            {static_cast<int>(field(row, "stage", -1)),
             static_cast<int>(field(row, "pu", -1)),
             field(row, "probability", 0.0)});
        ++i;
    }
    i = 0;
    for (const auto& row : sections["stragglers"]) {
        if (!checkRow(row, "stragglers", i, {"probability"},
                      {"stage", "factor"}, err)
            || !checkId(field(row, "stage", -1), "stragglers", i,
                        "stage", err))
            return std::nullopt;
        plan.stragglers.push_back(
            {static_cast<int>(field(row, "stage", -1)),
             field(row, "probability", 0.0), field(row, "factor", 8.0)});
        ++i;
    }
    i = 0;
    for (const auto& row : sections["dropouts"]) {
        if (!checkRow(row, "dropouts", i, {"pu", "at"}, {}, err)
            || !checkId(field(row, "pu", 0), "dropouts", i, "pu", err))
            return std::nullopt;
        plan.dropouts.push_back(
            {static_cast<int>(field(row, "pu", 0)), field(row, "at", 0.0)});
        ++i;
    }

    const auto seed = scalars.find("faultSeed");
    if (seed != scalars.end()) {
        if (seed->second < 0.0) {
            err = {PlanParseErrorKind::Range, "faultSeed must be >= 0"};
            return std::nullopt;
        }
        plan.faultSeed = static_cast<std::uint64_t>(seed->second);
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
    os.precision(17);
    os << "{";
    os << "\"slowdowns\":[";
    for (std::size_t i = 0; i < slowdowns.size(); ++i) {
        const auto& w = slowdowns[i];
        os << (i ? "," : "") << "{\"pu\":" << w.pu
           << ",\"start\":" << w.startSeconds
           << ",\"end\":" << w.endSeconds
           << ",\"clockFactor\":" << w.clockFactor << "}";
    }
    os << "],\"transients\":[";
    for (std::size_t i = 0; i < transients.size(); ++i) {
        const auto& t = transients[i];
        os << (i ? "," : "") << "{\"stage\":" << t.stage
           << ",\"pu\":" << t.pu
           << ",\"probability\":" << t.probability << "}";
    }
    os << "],\"stragglers\":[";
    for (std::size_t i = 0; i < stragglers.size(); ++i) {
        const auto& s = stragglers[i];
        os << (i ? "," : "") << "{\"stage\":" << s.stage
           << ",\"probability\":" << s.probability
           << ",\"factor\":" << s.factor << "}";
    }
    os << "],\"dropouts\":[";
    for (std::size_t i = 0; i < dropouts.size(); ++i) {
        const auto& d = dropouts[i];
        os << (i ? "," : "") << "{\"pu\":" << d.pu
           << ",\"at\":" << d.atSeconds << "}";
    }
    os << "],\"faultSeed\":" << faultSeed << "}";
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
