#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "common/logging.hpp"
#include "core/anneal.hpp"

namespace bt::core {

const char*
plannerEngineName(PlannerEngine engine)
{
    switch (engine) {
      case PlannerEngine::Annealed:
        return "annealed";
      default:
        return "exhaustive";
    }
}

PlannerEngine
plannerEngineFromName(const std::string& name)
{
    if (name == "exhaustive")
        return PlannerEngine::Exhaustive;
    if (name == "annealed")
        return PlannerEngine::Annealed;
    bt::fatal("unknown planner engine '", name,
              "' (expected exhaustive|annealed)");
}

std::uint64_t
PlannerSpec::fingerprint() const
{
    // FNV-1a over the semantic knobs, field by field.
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    const auto mixDouble = [&mix](double d) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        mix(bits);
    };
    mix(static_cast<std::uint64_t>(numCandidates));
    mix(utilizationFilter ? 1 : 0);
    mixDouble(gapnessSlack);
    mixDouble(latencySlack);
    mix(static_cast<std::uint64_t>(maxPerTier));
    // Latency/EnergyDelay keep their pre-PlannerSpec encodings (0/1)
    // so existing cached plans stay addressable.
    mix(static_cast<std::uint64_t>(objective));
    if (objective == Objective::EnergyKDelay)
        mixDouble(energyExponent);
    mix(allowedPus.size());
    for (const int pu : allowedPus)
        mix(static_cast<std::uint64_t>(pu));
    mixDouble(contention.ambientGbps);
    mixDouble(contention.budgetGbps);
    mix(contention.realTime ? 1 : 0);
    // The exact engine stays out of the hash, so cache keys minted by
    // earlier exact planners stay valid; a non-exactness-preserving
    // engine's result depends on its identity and every annealing
    // knob, so mix them in.
    if (!exactnessPreserving()) {
        mix(0xA22EA1EDull); // annealed-engine marker
        mix(anneal.seed);
        mix(static_cast<std::uint64_t>(anneal.moveBudget));
        mix(static_cast<std::uint64_t>(anneal.restarts));
        mixDouble(anneal.initialTemperature);
        mixDouble(anneal.finalTemperature);
    }
    return h;
}

namespace {

/// Penalty offsets of the annealer's guide objectives: schedules
/// violating the latency/utilization feasibility class score after those
/// merely exceeding the gapness budget, which score after fully feasible
/// ones. Latencies are in seconds (~1e-3), so the offsets dominate. They
/// only steer the walk; the final selection ranks by (class, score).
constexpr double kGapnessPenalty = 1e6;
constexpr double kFeasibilityPenalty = 2e6;

/** (first stage, last stage, pu) identity of one chunk assignment. */
using ChunkKey = std::tuple<int, int, int>;

ChunkKey
keyOf(const Chunk& c)
{
    return {c.firstStage, c.lastStage, c.pu};
}

/** The chunk that determines the schedule's bottleneck latency. */
ChunkKey
bottleneckKey(const Schedule& s, const ProfilingTable& table)
{
    int best = 0;
    double worst = -1.0;
    for (int c = 0; c < s.numChunks(); ++c) {
        const double t = s.chunkTime(table, c);
        if (t > worst) {
            worst = t;
            best = c;
        }
    }
    return keyOf(s.chunks()[static_cast<std::size_t>(best)]);
}

/** Stretched copy of @p base: each cell scaled by the contention
 *  profile's slowdown under @p bucket. Empty for bucket 0 (unused;
 *  predictions bind to the base table directly). */
ProfilingTable
makeStretchedTable(const ProfilingTable& base,
                   const platform::ContentionProfile* profile,
                   int bucket)
{
    if (bucket == 0)
        return {};
    ProfilingTable t(base.stages(), base.pus());
    for (int s = 0; s < base.numStages(); ++s) {
        for (int p = 0; p < base.numPus(); ++p) {
            t.set(s, p, base.at(s, p) * profile->stretch(s, p, bucket));
            t.setStddev(s, p, base.stddevAt(s, p));
        }
    }
    return t;
}

} // namespace

Optimizer::Optimizer(const platform::SocDescription& soc_,
                     const ProfilingTable& table_, PlannerSpec spec)
    : soc(soc_), baseTable_(table_), config(std::move(spec)),
      contention_(config.contentionProfile),
      bucket_(contention_ != nullptr && !config.contention.realTime
                  ? contention_->bucketOf(config.contention.ambientGbps)
                  : 0),
      stretchedStorage_(
          makeStretchedTable(baseTable_, contention_, bucket_)),
      table(bucket_ > 0 ? stretchedStorage_ : baseTable_),
      powerModel(soc_)
{
    BT_ASSERT(baseTable_.numPus() == soc.numPus(),
              "profiling table PU count does not match device");
    BT_ASSERT(config.numCandidates > 0);
    BT_ASSERT(config.gapnessSlack >= 0.0);
    BT_ASSERT(config.latencySlack >= 0.0);
    for (const int p : config.allowedPus)
        BT_ASSERT(p >= 0 && p < soc.numPus(),
                  "allowedPus names unknown PU ", p);
    if (contention_ != nullptr)
        BT_ASSERT(contention_->numStages == baseTable_.numStages()
                      && contention_->numPus == baseTable_.numPus(),
                  "contention profile grid does not match table");

    if (contention_ != nullptr && config.contention.budgetGbps > 0.0) {
        budgetMilli_ = platform::ContentionModel::milliGbps(
            config.contention.budgetGbps);
        // Feasibility pre-check: the frugalest schedule is the single
        // chunk on the allowed PU with the smallest worst-stage
        // demand. A budget below that admits nothing - relax C6 and
        // report it instead of returning an empty candidate list.
        std::int64_t min_demand
            = std::numeric_limits<std::int64_t>::max();
        for (int c = 0; c < soc.numPus(); ++c) {
            if (!puAllowed(c))
                continue;
            std::int64_t d = 0;
            for (int i = 0; i < baseTable_.numStages(); ++i)
                d = std::max(d, contention_->demandMilli(i, c));
            min_demand = std::min(min_demand, d);
        }
        if (budgetMilli_ >= min_demand)
            c6Active_ = true;
        else
            c6Relaxed_ = true;
    }

    if (config.sharedEvaluator != nullptr) {
        BT_ASSERT(&config.sharedEvaluator->table() == &baseTable_,
                  "shared evaluator built over a different table");
        eval_ = config.sharedEvaluator;
    } else {
        ownedEval_ = std::make_unique<ScheduleEvaluator>(
            soc, baseTable_, powerModel, contention_);
        eval_ = ownedEval_.get();
    }
}

bool
Optimizer::puAllowed(int pu) const
{
    if (config.allowedPus.empty())
        return true;
    return std::find(config.allowedPus.begin(),
                     config.allowedPus.end(), pu)
        != config.allowedPus.end();
}

bool
Optimizer::demandOk(const Schedule& s) const
{
    return !c6Active_
        || contention_->aggregateDemandMilli(s.toAssignment())
        <= budgetMilli_;
}

Candidate
Optimizer::makeCandidate(const Schedule& s) const
{
    const Prediction& p = eval_->predict(s, bucket_);
    Candidate c;
    c.schedule = s;
    c.predictedLatency = p.latency;
    c.predictedGapness = p.gapness;
    c.predictedEnergyJ = p.energyJ;
    c.predictedDemandGbps = p.demandGbps;
    return c;
}

double
Optimizer::rankScoreOf(double latency, double energy_j) const
{
    switch (config.objective) {
      case PlannerSpec::Objective::EnergyDelay:
        return energy_j * latency;
      case PlannerSpec::Objective::EnergyKDelay:
        // The e^k * d family; k = 1 coincides with EnergyDelay.
        return std::pow(energy_j, config.energyExponent) * latency;
      default:
        return latency;
    }
}

double
Optimizer::rankScore(const Candidate& c) const
{
    return rankScoreOf(c.predictedLatency, c.predictedEnergyJ);
}

int
Optimizer::rankClassOf(double latency, double gapness,
                       int num_chunks) const
{
    if (!config.utilizationFilter)
        return 0;
    if (latency > stats_.latencyBound + 1e-12
        || num_chunks < stats_.requiredPus)
        return 2; // outside the feasibility class
    if (gapness > stats_.gapnessBound + 1e-12)
        return 1; // feasible but over the gapness budget
    return 0;
}

int
Optimizer::rankClass(const Candidate& c) const
{
    return rankClassOf(c.predictedLatency, c.predictedGapness,
                       c.schedule.numChunks());
}

void
Optimizer::sortCandidates(std::vector<Candidate>& cands) const
{
    // Tie-break on the lexicographically smallest stage-to-PU vector:
    // the order is total, so the selection never depends on the order
    // the pool was produced in.
    std::stable_sort(cands.begin(), cands.end(),
                     [&](const Candidate& a, const Candidate& b) {
                         const int ra = rankClass(a);
                         const int rb = rankClass(b);
                         if (ra != rb)
                             return ra < rb;
                         const double sa = rankScore(a);
                         const double sb = rankScore(b);
                         if (sa != sb)
                             return sa < sb;
                         return a.schedule.toAssignment()
                             < b.schedule.toAssignment();
                     });
}

std::vector<Candidate>
Optimizer::optimize()
{
    stats_ = OptimizeStats{};
    stats_.engine = config.engine;
    stats_.latencyBound = std::numeric_limits<double>::infinity();
    stats_.gapnessBound = std::numeric_limits<double>::infinity();
    stats_.demandBudgetGbps
        = c6Active_ ? config.contention.budgetGbps : 0.0;
    stats_.c6Relaxed = c6Relaxed_;

    int allowed_count = 0;
    for (int c = 0; c < soc.numPus(); ++c)
        allowed_count += puAllowed(c) ? 1 : 0;
    BT_ASSERT(allowed_count > 0, "allowedPus admits no PU");
    stats_.spaceSize
        = scheduleSpaceSize(table.numStages(), allowed_count);
    if (config.exactnessPreserving() && config.exactSpaceLimit > 0
        && stats_.spaceSize > config.exactSpaceLimit)
        BT_PANIC("planner.exact_space", "schedule space of ",
                 stats_.spaceSize, " schedules exceeds exactSpaceLimit ",
                 config.exactSpaceLimit,
                 "; the exact engine refuses instances this large - "
                 "switch to PlannerEngine::Annealed");

    // Both engines return selectDiverse output: ranked and truncated.
    auto cands = config.engine == PlannerEngine::Annealed
        ? optimizeAnnealed()
        : optimizeExhaustive();
    for (const auto& c : cands)
        if (rankClass(c) == 0)
            ++stats_.candidatesWithinBound;
    stats_.evalHits = eval_->stats().hits;
    stats_.evalMisses = eval_->stats().misses;
    return cands;
}

std::vector<Candidate>
Optimizer::optimizeExhaustive()
{
    const int n = table.numStages();
    const int m = soc.numPus();
    // Excluded classes (degradation re-plan hook, service leases) are
    // pruned during enumeration, so the pool is the allowed space only.
    std::uint32_t allowed_mask = 0;
    for (int c = 0; c < m; ++c)
        if (puAllowed(c))
            allowed_mask |= 1u << c;
    const auto all = enumerateSchedules(n, m, allowed_mask);
    stats_.solverNodes = all.size();

    std::vector<Candidate> cands;
    cands.reserve(all.size());
    for (const auto& s : all) {
        if (!demandOk(s))
            continue; // over the C6 aggregate-demand budget
        cands.push_back(makeCandidate(s));
    }
    BT_ASSERT(!cands.empty(), "allowedPus admits no schedule");
    return selectDiverse(std::move(cands));
}

std::vector<Candidate>
Optimizer::selectDiverse(std::vector<Candidate> cands)
{
    BT_ASSERT(!cands.empty(), "no admissible schedule to select from");
    double best_latency = std::numeric_limits<double>::infinity();
    for (const auto& c : cands)
        best_latency = std::min(best_latency, c.predictedLatency);
    stats_.unrestrictedLatency = best_latency;

    if (config.utilizationFilter) {
        stats_.latencyBound
            = best_latency * (1.0 + config.latencySlack) + 1e-12;

        // Highest PU count within the latency bound.
        stats_.requiredPus = 1;
        for (const auto& c : cands)
            if (c.predictedLatency <= stats_.latencyBound)
                stats_.requiredPus = std::max(
                    stats_.requiredPus, c.schedule.numChunks());

        // Minimal gapness within the feasibility class.
        double min_gap = std::numeric_limits<double>::infinity();
        for (const auto& c : cands)
            if (c.predictedLatency <= stats_.latencyBound
                && c.schedule.numChunks() >= stats_.requiredPus)
                min_gap = std::min(min_gap, c.predictedGapness);
        BT_ASSERT(min_gap < std::numeric_limits<double>::infinity());
        stats_.minimalGapness = min_gap;
        stats_.gapnessBound
            = min_gap * (1.0 + config.gapnessSlack) + 1e-9;
    }

    // Level 2: walk schedules best-first (C5: each is picked at most
    // once), cap per-tier membership, and treat a saturated tier's
    // chunk assignment as blocked anywhere.
    sortCandidates(cands);
    std::vector<Candidate> picked;
    std::map<ChunkKey, int> tier_count;
    std::set<ChunkKey> blocked;
    for (const auto& c : cands) {
        if (static_cast<int>(picked.size()) >= config.numCandidates)
            break;
        // A blocked (range, pu) bans every schedule assigning that
        // whole stage range to that PU - even inside a larger chunk.
        const auto assign = c.schedule.toAssignment();
        bool banned = false;
        for (const auto& [first, last, pu] : blocked) {
            bool covered = true;
            for (int i = first; i <= last && covered; ++i)
                covered = assign[static_cast<std::size_t>(i)] == pu;
            banned = banned || covered;
        }
        if (banned)
            continue;
        picked.push_back(c);
        if (config.maxPerTier > 0) {
            const ChunkKey tier = bottleneckKey(c.schedule, table);
            if (++tier_count[tier] >= config.maxPerTier)
                blocked.insert(tier);
        }
    }
    return picked;
}

std::vector<Candidate>
Optimizer::optimizeAnnealed()
{
    std::vector<int> allowed;
    for (int c = 0; c < soc.numPus(); ++c)
        if (puAllowed(c))
            allowed.push_back(c);
    const int m_eff = static_cast<int>(allowed.size());

    Annealer annealer(soc, *eval_, config.anneal, bucket_,
                      std::move(allowed), contention_,
                      c6Active_ ? budgetMilli_ : 0);

    // A swept pool is already the full enumeration; phases could only
    // re-visit it, so skip straight to the harvest.
    if (!annealer.exhausted())
        runAnnealPhases(annealer, m_eff);

    // Harvest: the pool is this engine's "enumeration"; the final
    // selection applies the exact engine's level arithmetic over it,
    // which is why annealed results are cost-equal to the exact
    // engine whenever the pool covers the relevant optima.
    std::vector<Candidate> cands;
    cands.reserve(annealer.pool().size());
    for (const auto& e : annealer.pool()) {
        Candidate c;
        c.schedule = Schedule::fromAssignment(e.assignment);
        c.predictedLatency = e.pred.latency;
        c.predictedGapness = e.pred.gapness;
        c.predictedEnergyJ = e.pred.energyJ;
        c.predictedDemandGbps = e.pred.demandGbps;
        cands.push_back(std::move(c));
    }
    const Annealer::Stats as = annealer.stats();
    stats_.annealProposed = as.proposed;
    stats_.annealAccepted = as.accepted;
    stats_.annealFiltered = as.filtered;
    stats_.annealDistinct = as.distinct;
    stats_.annealChains = as.chains;
    return selectDiverse(std::move(cands));
}

void
Optimizer::runAnnealPhases(Annealer& annealer, int m_eff)
{
    const std::int64_t budget
        = std::max<std::int64_t>(config.anneal.moveBudget, 1);
    std::int64_t spent = 0;
    const auto slice = [&](int permille) {
        const std::int64_t s
            = std::min(budget - spent, budget * permille / 1000);
        spent += s;
        return s;
    };
    // Provisional level-1 bounds over the pool visited so far, using
    // the exact engine's arithmetic; later phases guide against them
    // and the final selection re-derives them over the full pool.
    const auto poolBounds = [&] {
        double best = std::numeric_limits<double>::infinity();
        for (const auto& e : annealer.pool())
            best = std::min(best, e.pred.latency);
        stats_.unrestrictedLatency = best;
        stats_.latencyBound
            = best * (1.0 + config.latencySlack) + 1e-12;
        stats_.requiredPus = 1;
        for (const auto& e : annealer.pool())
            if (e.pred.latency <= stats_.latencyBound)
                stats_.requiredPus
                    = std::max(stats_.requiredPus, e.pred.numChunks);
        double min_gap = std::numeric_limits<double>::infinity();
        for (const auto& e : annealer.pool())
            if (e.pred.latency <= stats_.latencyBound
                && e.pred.numChunks >= stats_.requiredPus)
                min_gap = std::min(min_gap, e.pred.gapness);
        stats_.minimalGapness = min_gap;
        stats_.gapnessBound
            = min_gap * (1.0 + config.gapnessSlack) + 1e-9;
    };

    // The phase sequence mirrors the exact engine's levels: 1a hunt
    // the unrestricted latency optimum, 1b maximize PU-class count
    // within the bound, 1c minimize gapness within the class, then
    // level 2's ranking objective.
    annealer.runPhase([](const Prediction& p) { return p.latency; },
                      slice(config.utilizationFilter ? 350 : 600));
    if (config.utilizationFilter) {
        poolBounds();
        {
            const double bound = stats_.latencyBound;
            annealer.runPhase(
                [bound, m_eff](const Prediction& p) {
                    // One unit per missing PU class dominates any
                    // in-bound latency (seconds); the bound penalty
                    // dominates both.
                    return (p.latency > bound ? kFeasibilityPenalty
                                              : 0.0)
                        + static_cast<double>(m_eff - p.numChunks)
                        + p.latency;
                },
                slice(200));
        }
        poolBounds();
        {
            const double bound = stats_.latencyBound;
            const int req = stats_.requiredPus;
            annealer.runPhase(
                [bound, req](const Prediction& p) {
                    return (p.latency > bound || p.numChunks < req)
                        ? kFeasibilityPenalty + p.gapness
                        : p.gapness;
                },
                slice(150));
        }
        poolBounds();
    }
    annealer.runPhase(
        [this](const Prediction& p) {
            const int cls
                = rankClassOf(p.latency, p.gapness, p.numChunks);
            const double score = rankScoreOf(p.latency, p.energyJ);
            return cls == 2 ? kFeasibilityPenalty + score
                : cls == 1  ? kGapnessPenalty + score
                            : score;
        },
        budget - spent);
}

} // namespace bt::core
