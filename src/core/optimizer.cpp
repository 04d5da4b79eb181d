#include "core/optimizer.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
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
    // The former tier-cap knob keeps its position at its one value.
    mix(static_cast<std::uint64_t>(kMaxPerTier));
    // Latency/EnergyDelay keep their pre-PlannerSpec encodings (0/1)
    // so existing cached plans stay addressable.
    mix(static_cast<std::uint64_t>(objective));
    mix(allowedPus.size());
    for (const int pu : allowedPus)
        mix(static_cast<std::uint64_t>(pu));
    mixDouble(contention.ambientGbps);
    mixDouble(contention.budgetGbps);
    mix(contention.realTime ? 1 : 0);
    // The engine rule and the annealing knobs: which engine runs, and
    // so whether the knobs matter, follows from the space size.
    mix(exactSpaceLimit);
    mix(anneal.seed);
    mix(static_cast<std::uint64_t>(anneal.moveBudget));
    // The former restart and temperature knobs keep their positions at
    // their old default values (restarts 4, initial temperature 0.0,
    // which selected 0.25, final temperature 1e-4), so cached plans
    // stay addressable.
    mix(4);
    mixDouble(0.0);
    mixDouble(1e-4);
    return h;
}

std::vector<runtime::PlanParseError>
PlannerSpec::problems(int num_pus) const
{
    using runtime::atLeastRule;
    std::vector<runtime::PlanParseError> out;
    const auto fail = [&out](const auto&... parts) {
        out.push_back({runtime::PlanParseErrorKind::Range,
                       detail::concat(parts...)});
    };
    atLeastRule(out, "numCandidates", numCandidates, 1);
    atLeastRule(out, "latencySlack", latencySlack, 0.0);
    atLeastRule(out, "gapnessSlack", gapnessSlack, 0.0);
    atLeastRule(out, "contention.ambientGbps", contention.ambientGbps, 0.0);
    atLeastRule(out, "contention.budgetGbps", contention.budgetGbps, 0.0);
    for (const int p : allowedPus) {
        atLeastRule(out, "allowedPus ids", p, 0);
        if (num_pus > 0 && p >= num_pus)
            fail("allowedPus ids must be in [0, ", num_pus, "), got ", p);
    }
    atLeastRule(out, "anneal.moveBudget", anneal.moveBudget, 1);
    return out;
}

std::vector<int>
admittedPus(const std::vector<int>& allowed_pus, int num_pus)
{
    std::vector<int> admitted;
    for (int p = 0; p < num_pus; ++p)
        if (allowed_pus.empty()
            || std::find(allowed_pus.begin(), allowed_pus.end(), p)
                != allowed_pus.end())
            admitted.push_back(p);
    return admitted;
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

/** The chunk that determines the schedule's bottleneck latency under
 *  ambient bucket @p bucket: the first chunk of maximal time. */
ChunkKey
bottleneckKey(const Schedule& s, ScheduleEvaluator& eval, int bucket)
{
    const Chunk* best = nullptr;
    double worst = -1.0;
    for (const Chunk& c : s.chunks()) {
        const double t
            = eval.chunkTime(c.firstStage, c.lastStage, c.pu, bucket);
        if (t > worst) {
            worst = t;
            best = &c;
        }
    }
    return keyOf(*best);
}

/**
 * Level 1 (paper O1 + C3) over an admissible pool: the unrestricted
 * latency optimum and, under the utilization filter, the latency
 * bound, the highest PU count within it, the minimal gapness within
 * that class and the gapness bound. @p proj maps a pool element to
 * something with latency, gapness and numChunks members. The final
 * selection and the annealer's provisional guides both read it.
 */
template <typename Pool, typename Proj>
void
levelOneBounds(const Pool& pool, Proj proj, const PlannerSpec& spec,
               OptimizeStats& st)
{
    double best = std::numeric_limits<double>::infinity();
    for (const auto& e : pool)
        best = std::min(best, std::invoke(proj, e).latency);
    st.unrestrictedLatency = best;
    if (!spec.utilizationFilter)
        return;
    st.latencyBound = best * (1.0 + spec.latencySlack) + 1e-12;

    // Highest PU count within the latency bound.
    st.requiredPus = 1;
    for (const auto& e : pool) {
        const auto& p = std::invoke(proj, e);
        if (p.latency <= st.latencyBound)
            st.requiredPus = std::max<int>(st.requiredPus, p.numChunks);
    }

    // Minimal gapness within the feasibility class.
    double min_gap = std::numeric_limits<double>::infinity();
    for (const auto& e : pool) {
        const auto& p = std::invoke(proj, e);
        if (p.latency <= st.latencyBound && p.numChunks >= st.requiredPus)
            min_gap = std::min(min_gap, p.gapness);
    }
    BT_ASSERT(min_gap < std::numeric_limits<double>::infinity());
    st.minimalGapness = min_gap;
    st.gapnessBound = min_gap * (1.0 + spec.gapnessSlack) + 1e-9;
}

} // namespace

/**
 * The admissible schedules as level 1 and level 2 read them: one
 * compact record per schedule plus its stage-to-PU assignment, one byte
 * per stage, in a flat arena (record i owns bytes [i * n, (i + 1) * n)).
 * Comparing arena bytes ranks assignments lexicographically for any
 * stage count, so the (class, score, assignment) order is total without
 * a packed key or a fallback.
 */
struct Optimizer::RankPool
{
    struct Record
    {
        double score = 0.0; ///< rankScoreOf(latency, energyJ)
        double latency = 0.0;
        double gapness = 0.0;
        double energyJ = 0.0;
        double demandGbps = 0.0;
        std::uint8_t numChunks = 0;
        std::uint8_t cls = 0; ///< rankClassOf, set once level 1 is known
    };

    explicit RankPool(int num_stages, std::uint64_t capacity)
        : n(static_cast<std::size_t>(num_stages))
    {
        BT_ASSERT(capacity <= std::numeric_limits<std::uint32_t>::max(),
                  "ranking pool of ", capacity, " schedules");
        records.reserve(static_cast<std::size_t>(capacity));
        arena.reserve(static_cast<std::size_t>(capacity) * n);
    }

    void
    add(const Prediction& p, double score)
    {
        records.push_back(Record{score, p.latency, p.gapness, p.energyJ,
                                 p.demandGbps,
                                 static_cast<std::uint8_t>(p.numChunks),
                                 0});
    }

    void
    add(const Prediction& p, double score, std::span<const Chunk> chunks)
    {
        add(p, score);
        for (const Chunk& c : chunks)
            arena.insert(arena.end(),
                         static_cast<std::size_t>(c.numStages()),
                         static_cast<std::uint8_t>(c.pu));
    }

    void
    add(const Prediction& p, double score, std::span<const int> assignment)
    {
        add(p, score);
        for (const int pu : assignment)
            arena.push_back(static_cast<std::uint8_t>(pu));
    }

    const std::uint8_t*
    assignment(std::size_t i) const
    {
        return arena.data() + i * n;
    }

    /** The total ranking order: (class, score, assignment). */
    bool
    before(std::size_t a, std::size_t b) const
    {
        const Record& ra = records[a];
        const Record& rb = records[b];
        if (ra.cls != rb.cls)
            return ra.cls < rb.cls;
        if (ra.score != rb.score)
            return ra.score < rb.score;
        return std::memcmp(assignment(a), assignment(b), n) < 0;
    }

    std::size_t n; ///< stages, = arena bytes per record
    std::vector<Record> records;
    std::vector<std::uint8_t> arena;
};

Optimizer::Optimizer(const platform::SocDescription& soc_,
                     const ProfilingTable& table_, PlannerSpec spec)
    : soc(soc_), table(table_), config(std::move(spec)), powerModel(soc_),
      contention_(config.contentionProfile),
      bucket_(contention_ != nullptr && !config.contention.realTime
                  ? powerModel.contention().bucketOf(
                      config.contention.ambientGbps)
                  : 0)
{
    BT_ASSERT(table.numPus() == soc.numPus(),
              "profiling table PU count does not match device");
    if (const std::string bad
        = runtime::rangeErrors(config.problems(soc.numPus()));
        !bad.empty())
        BT_PANIC("spec.range", bad);
    if (contention_ != nullptr)
        BT_ASSERT(contention_->numStages == table.numStages()
                      && contention_->numPus == table.numPus(),
                  "contention profile grid does not match table");
    BT_ASSERT(soc.numPus() <= 32, "the allowed-PU mask holds 32 classes");
    const std::vector<int> allowed
        = admittedPus(config.allowedPus, soc.numPus());
    BT_ASSERT(!allowed.empty(), "allowedPus admits no PU");
    for (const int c : allowed)
        allowedMask_ |= 1u << c;

    if (contention_ != nullptr && config.contention.budgetGbps > 0.0) {
        budgetMilli_ = platform::ContentionModel::milliGbps(
            config.contention.budgetGbps);
        // Feasibility pre-check: a budget below the C6 demand floor
        // admits nothing - relax C6 and report it instead of returning
        // an empty candidate list.
        if (budgetMilli_ >= contention_->worstStageDemandMilli(
                contention_->frugalestPu(allowed)))
            c6Active_ = true;
        else
            c6Relaxed_ = true;
    }

    if (config.sharedEvaluator != nullptr) {
        BT_ASSERT(&config.sharedEvaluator->table() == &table,
                  "shared evaluator built over a different table");
        eval_ = config.sharedEvaluator;
        // C6 reads the demand the evaluator folds and ambient buckets
        // its stretched chunk times, so it must fold the spec's profile.
        BT_ASSERT((!c6Active_ && bucket_ == 0)
                      || eval_->contention() == contention_,
                  "shared evaluator built without the spec's profile");
    } else {
        ownedEval_ = std::make_unique<ScheduleEvaluator>(
            soc, table, powerModel, contention_);
        eval_ = ownedEval_.get();
    }
}

bool
Optimizer::demandOk(const Prediction& p) const
{
    return !c6Active_ || p.demandMilli <= budgetMilli_;
}

double
Optimizer::rankScoreOf(double latency, double energy_j) const
{
    return config.objective == PlannerSpec::Objective::EnergyDelay
        ? energy_j * latency
        : latency;
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

std::vector<Candidate>
Optimizer::optimize()
{
    stats_ = OptimizeStats{};
    stats_.latencyBound = std::numeric_limits<double>::infinity();
    stats_.gapnessBound = std::numeric_limits<double>::infinity();
    stats_.demandBudgetGbps
        = c6Active_ ? config.contention.budgetGbps : 0.0;
    stats_.c6Relaxed = c6Relaxed_;

    stats_.spaceSize = scheduleSpaceSize(table.numStages(),
                                         std::popcount(allowedMask_));
    // The engine rule: enumerate what fits under the limit, anneal the
    // rest. Both engines return selectDiverse output over their
    // ranking records: ranked and truncated.
    stats_.engine = stats_.spaceSize > config.exactSpaceLimit
        ? PlannerEngine::Annealed
        : PlannerEngine::Exhaustive;
    return stats_.engine == PlannerEngine::Annealed ? optimizeAnnealed()
                                                    : optimizeExhaustive();
}

std::vector<Candidate>
Optimizer::optimizeExhaustive()
{
    // One walk over the allowed space (excluded classes - degradation
    // re-plan hook, service leases - are pruned inside it): score each
    // schedule in place, drop it if it is over the C6 budget, else keep
    // its ranking record. No Schedule is built here.
    RankPool pool(table.numStages(), stats_.spaceSize);
    forEachSchedule(table.numStages(), soc.numPus(), allowedMask_,
                    [&](std::span<const Chunk> chunks) {
                        ++stats_.solverNodes;
                        const Prediction p
                            = eval_->evaluate(chunks, bucket_);
                        if (demandOk(p))
                            pool.add(p, rankScoreOf(p.latency, p.energyJ),
                                     chunks);
                    });
    BT_ASSERT(!pool.records.empty(), "allowedPus admits no schedule");
    return selectDiverse(pool);
}

std::vector<Candidate>
Optimizer::selectDiverse(RankPool& pool)
{
    auto& recs = pool.records;
    BT_ASSERT(!recs.empty(), "no admissible schedule to select from");
    levelOneBounds(recs, std::identity{}, config, stats_);
    for (auto& r : recs)
        r.cls = static_cast<std::uint8_t>(
            rankClassOf(r.latency, r.gapness, r.numChunks));

    // Level 2: pop records best-first (C5: each is picked at most
    // once), cap per-tier membership, and treat a saturated tier's
    // chunk assignment as blocked anywhere. The heap orders lazily, so
    // only the popped prefix of the ranking is ever sorted.
    std::vector<std::uint32_t> heap(recs.size());
    std::iota(heap.begin(), heap.end(), 0u);
    const auto after = [&pool](std::uint32_t a, std::uint32_t b) {
        return pool.before(b, a);
    };
    std::make_heap(heap.begin(), heap.end(), after);

    std::vector<Candidate> picked;
    std::map<ChunkKey, int> tier_count;
    std::set<ChunkKey> blocked;
    std::vector<int> assign(pool.n);
    while (static_cast<int>(picked.size()) < config.numCandidates
           && !heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), after);
        const std::uint32_t i = heap.back();
        heap.pop_back();
        // A blocked (range, pu) bans every schedule assigning that
        // whole stage range to that PU - even inside a larger chunk.
        const std::uint8_t* a = pool.assignment(i);
        bool banned = false;
        for (const auto& [first, last, pu] : blocked) {
            bool covered = true;
            for (int s = first; s <= last && covered; ++s)
                covered = a[s] == pu;
            banned = banned || covered;
        }
        if (banned)
            continue;

        const auto& r = recs[i];
        std::copy(a, a + pool.n, assign.begin());
        Candidate c;
        c.schedule = Schedule::fromAssignment(assign);
        c.predictedLatency = r.latency;
        c.predictedGapness = r.gapness;
        c.predictedEnergyJ = r.energyJ;
        c.predictedDemandGbps = r.demandGbps;
        if (r.cls == 0)
            ++stats_.candidatesWithinBound;
        const ChunkKey tier = bottleneckKey(c.schedule, *eval_, bucket_);
        if (++tier_count[tier] >= PlannerSpec::kMaxPerTier)
            blocked.insert(tier);
        picked.push_back(std::move(c));
    }
    return picked;
}

std::vector<Candidate>
Optimizer::optimizeAnnealed()
{
    const int m_eff = std::popcount(allowedMask_);
    Annealer annealer(*eval_, config.anneal, bucket_,
                      admittedPus(config.allowedPus, soc.numPus()),
                      stats_.spaceSize, contention_,
                      c6Active_ ? budgetMilli_ : 0);

    // A swept pool is already the full enumeration; phases could only
    // re-visit it, so skip straight to the harvest.
    if (!annealer.exhausted())
        runAnnealPhases(annealer, m_eff);

    // Harvest: the pool is this engine's "enumeration"; the final
    // selection applies the exact engine's level arithmetic over it,
    // which is why annealed results are cost-equal to the exact
    // engine whenever the pool covers the relevant optima.
    RankPool pool(table.numStages(), annealer.pool().size());
    for (const auto& e : annealer.pool())
        pool.add(e.pred, rankScoreOf(e.pred.latency, e.pred.energyJ),
                 std::span<const int>(e.assignment));
    const Annealer::Stats as = annealer.stats();
    stats_.annealProposed = as.proposed;
    stats_.annealAccepted = as.accepted;
    stats_.annealFiltered = as.filtered;
    stats_.annealDistinct = as.distinct;
    stats_.annealChains = as.chains;
    stats_.evalHits = static_cast<std::uint64_t>(as.revisits);
    stats_.evalMisses = static_cast<std::uint64_t>(as.distinct);
    return selectDiverse(pool);
}

void
Optimizer::runAnnealPhases(Annealer& annealer, int m_eff)
{
    const std::int64_t budget = config.anneal.moveBudget;
    std::int64_t spent = 0;
    const auto slice = [&](int permille) {
        const std::int64_t s
            = std::min(budget - spent, budget * permille / 1000);
        spent += s;
        return s;
    };
    // Provisional level-1 bounds over the pool visited so far; later
    // phases guide against them and the final selection re-derives
    // them over the full pool.
    const auto poolBounds = [&] {
        levelOneBounds(annealer.pool(), &Annealer::PoolEntry::pred, config,
                       stats_);
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
