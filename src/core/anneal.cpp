#include "core/anneal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.hpp"

namespace bt::core {

namespace {

void
toAssignment(std::span<const Chunk> chunks, std::vector<int>& out)
{
    for (const Chunk& c : chunks)
        for (int s = c.firstStage; s <= c.lastStage; ++s)
            out[static_cast<std::size_t>(s)] = c.pu;
}

} // namespace

Annealer::Annealer(ScheduleEvaluator& eval, const AnnealSpec& spec,
                   int bucket, std::vector<int> allowed_pus,
                   std::uint64_t space_size,
                   const platform::ContentionProfile* contention,
                   std::int64_t budget_milli)
    : eval_(eval), bucket_(bucket),
      allowed_(std::move(allowed_pus)), contention_(contention),
      budgetMilli_(budget_milli), numStages_(eval.numStages()),
      keyed_(numStages_ <= 16 && eval.numPus() <= 16)
{
    BT_ASSERT(!allowed_.empty(), "annealer needs at least one PU");
    std::sort(allowed_.begin(), allowed_.end());
    allowed_.erase(std::unique(allowed_.begin(), allowed_.end()),
                   allowed_.end());
    BT_ASSERT(budgetMilli_ == 0 || contention_ != nullptr,
              "C6 filtering needs a contention profile");
    assignScratch_.assign(static_cast<std::size_t>(numStages_), 0);
    seedChains(spec);
    maybeSweep(spec, space_size);
}

void
Annealer::maybeSweep(const AnnealSpec& spec, std::uint64_t space_size)
{
    // A walk over a space that fits comfortably inside the move budget
    // is pure waste: sweep it instead, so the pool is the full
    // enumeration and the harvested result matches the exhaustive
    // engine exactly. The space size saturates, so huge instances
    // compare safely.
    if (space_size > static_cast<std::uint64_t>(spec.moveBudget / 4))
        return;
    std::uint32_t mask = 0;
    for (const int pu : allowed_)
        mask |= 1u << pu;
    forEachSchedule(numStages_, eval_.numPus(), mask,
                    [this](std::span<const Chunk> chunks) {
                        ++proposed_;
                        evaluate(chunks);
                    });
    exhausted_ = true;
}

std::vector<Chunk>
Annealer::frugalHomogeneous() const
{
    // The schedule at the C6 demand floor the Optimizer's feasibility
    // pre-check compares against, so it is feasible whenever the
    // filter is active.
    BT_ASSERT(contention_ != nullptr);
    return {Chunk{0, numStages_ - 1, contention_->frugalestPu(allowed_)}};
}

void
Annealer::seedChains(const AnnealSpec& spec)
{
    chains_.reserve(AnnealSpec::kRestarts);

    // Chain 0 starts from the best feasible homogeneous baseline (also
    // guaranteeing the pool is never empty); the rest start from
    // seeded random partitions for diversity.
    Chain first;
    first.rng = Rng(hashCombine(spec.seed, 0));
    double best = std::numeric_limits<double>::infinity();
    int best_pu = -1;
    for (const int pu : allowed_) {
        const std::vector<Chunk> one{Chunk{0, numStages_ - 1, pu}};
        const Prediction* p = evaluate(one);
        if (p != nullptr && p->latency < best) {
            best = p->latency;
            best_pu = pu;
        }
    }
    BT_ASSERT(best_pu >= 0,
              "no homogeneous schedule fits the C6 budget (the "
              "optimizer's feasibility pre-check should have relaxed "
              "C6)");
    first.chunks = {Chunk{0, numStages_ - 1, best_pu}};
    chains_.push_back(std::move(first));

    for (int c = 1; c < AnnealSpec::kRestarts; ++c) {
        Chain ch;
        ch.rng = Rng(
            hashCombine(spec.seed, static_cast<std::uint64_t>(c)));
        ch.chunks = randomPartition(ch.rng);
        const Prediction* p = evaluate(ch.chunks); // pool the start
        BT_ASSERT(p != nullptr, "random chain start must be feasible");
        chains_.push_back(std::move(ch));
    }
}

std::vector<Chunk>
Annealer::randomPartition(Rng& rng)
{
    const int n = numStages_;
    const int m_eff = static_cast<int>(allowed_.size());
    const int k = 1
        + static_cast<int>(rng.nextBounded(
            static_cast<std::uint64_t>(std::min(n, m_eff))));

    // k-1 distinct cut points from {1..n-1} via partial Fisher-Yates.
    std::vector<int> cuts(static_cast<std::size_t>(n - 1));
    std::iota(cuts.begin(), cuts.end(), 1);
    for (int i = 0; i < k - 1; ++i)
        std::swap(cuts[static_cast<std::size_t>(i)],
                  cuts[static_cast<std::size_t>(i)
                       + rng.nextBounded(
                           static_cast<std::uint64_t>(n - 1 - i))]);
    cuts.resize(static_cast<std::size_t>(k - 1));
    std::sort(cuts.begin(), cuts.end());

    // k distinct PUs from the allowed set, same trick.
    std::vector<int> pus(allowed_);
    for (int i = 0; i < k; ++i)
        std::swap(pus[static_cast<std::size_t>(i)],
                  pus[static_cast<std::size_t>(i)
                      + rng.nextBounded(
                          static_cast<std::uint64_t>(m_eff - i))]);

    std::vector<Chunk> chunks;
    chunks.reserve(static_cast<std::size_t>(k));
    int start = 0;
    for (int i = 0; i < k; ++i) {
        const int last
            = i + 1 < k ? cuts[static_cast<std::size_t>(i)] - 1 : n - 1;
        chunks.push_back(
            Chunk{start, last, pus[static_cast<std::size_t>(i)]});
        start = last + 1;
    }

    if (budgetMilli_ > 0
        && eval_.evaluate(chunks, bucket_).demandMilli > budgetMilli_)
        return frugalHomogeneous(); // feasible fallback start
    return chunks;
}

const Prediction*
Annealer::evaluate(std::span<const Chunk> chunks)
{
    toAssignment(chunks, assignScratch_);
    std::uint64_t key = 0;
    if (keyed_) {
        for (std::size_t i = 0; i < assignScratch_.size(); ++i)
            key |= static_cast<std::uint64_t>(assignScratch_[i])
                << (4 * i);
        if (const auto it = poolIndex_.find(key); it != poolIndex_.end())
            return revisit(it->second);
    } else if (const auto it = poolIndexWide_.find(assignScratch_);
               it != poolIndexWide_.end()) {
        return revisit(it->second);
    }

    const Prediction pred = eval_.evaluate(chunks, bucket_);
    const bool feasible
        = budgetMilli_ <= 0 || pred.demandMilli <= budgetMilli_;
    const std::size_t at = feasible ? pool_.size() : kFiltered;
    if (keyed_)
        poolIndex_.emplace(key, at);
    else
        poolIndexWide_.emplace(assignScratch_, at);
    if (!feasible) {
        ++filtered_; // C6: never pooled, never a chain state
        return nullptr;
    }
    pool_.push_back(PoolEntry{assignScratch_, pred});
    return &pool_.back().pred;
}

const Prediction*
Annealer::revisit(std::size_t at)
{
    if (at == kFiltered) {
        ++filtered_; // every C6-filtered proposal counts, first or not
        return nullptr;
    }
    ++revisits_;
    return &pool_[at].pred;
}

bool
Annealer::propose(Chain& chain)
{
    const std::vector<Chunk>& cur = chain.chunks;
    const int nc = static_cast<int>(cur.size());
    prop_ = cur;
    // Rare teleport to a fresh random partition: keeps the proposal
    // chain irreducible even after every chain has frozen, without
    // diluting the local move mix.
    if (chain.rng.nextBounded(16) == 0) {
        prop_ = randomPartition(chain.rng);
        return true;
    }
    switch (chain.rng.nextBounded(4)) {
      case 0: { // reassign a chunk onto an unused allowed PU
        std::vector<int> free;
        for (const int pu : allowed_) {
            bool used = false;
            for (const Chunk& c : cur)
                used = used || c.pu == pu;
            if (!used)
                free.push_back(pu);
        }
        if (free.empty())
            return false;
        const auto idx = chain.rng.nextBounded(
            static_cast<std::uint64_t>(nc));
        prop_[idx].pu
            = free[chain.rng.nextBounded(free.size())];
        return true;
      }
      case 1: { // swap adjacent chunks' PU assignments
        if (nc < 2)
            return false;
        const auto i = chain.rng.nextBounded(
            static_cast<std::uint64_t>(nc - 1));
        std::swap(prop_[i].pu, prop_[i + 1].pu);
        return true;
      }
      case 2: { // rebalance: shift a chunk boundary by one stage
        if (nc < 2)
            return false;
        const auto b = chain.rng.nextBounded(
            static_cast<std::uint64_t>(nc - 1));
        if (chain.rng.nextBounded(2) == 0) {
            ++prop_[b].lastStage; // grow left, shrink right
            ++prop_[b + 1].firstStage;
            if (prop_[b + 1].firstStage > prop_[b + 1].lastStage)
                prop_.erase(prop_.begin()
                            + static_cast<std::ptrdiff_t>(b) + 1);
        } else {
            --prop_[b].lastStage; // shrink left, grow right
            --prop_[b + 1].firstStage;
            if (prop_[b].firstStage > prop_[b].lastStage)
                prop_.erase(prop_.begin()
                            + static_cast<std::ptrdiff_t>(b));
        }
        return true;
      }
      default: { // rebalance: split a chunk onto an unused allowed PU
        std::vector<int> free;
        for (const int pu : allowed_) {
            bool used = false;
            for (const Chunk& c : cur)
                used = used || c.pu == pu;
            if (!used)
                free.push_back(pu);
        }
        if (free.empty())
            return false;
        std::vector<int> splittable;
        for (int c = 0; c < nc; ++c)
            if (cur[static_cast<std::size_t>(c)].numStages() >= 2)
                splittable.push_back(c);
        if (splittable.empty())
            return false;
        const int c = splittable[chain.rng.nextBounded(
            splittable.size())];
        const std::size_t ci = static_cast<std::size_t>(c);
        const int cut = prop_[ci].firstStage
            + static_cast<int>(chain.rng.nextBounded(
                static_cast<std::uint64_t>(prop_[ci].numStages()
                                           - 1)));
        const Chunk right{cut + 1, prop_[ci].lastStage,
                          free[chain.rng.nextBounded(free.size())]};
        prop_[ci].lastStage = cut;
        prop_.insert(prop_.begin() + c + 1, right);
        return true;
      }
    }
}

void
Annealer::runPhase(const Guide& guide, std::int64_t proposals)
{
    if (proposals <= 0)
        return;
    const auto nchains = static_cast<std::int64_t>(chains_.size());
    for (std::int64_t ci = 0; ci < nchains; ++ci) {
        Chain& ch = chains_[static_cast<std::size_t>(ci)];
        // Re-score the carried-over state under this phase's guide.
        const Prediction* p = evaluate(ch.chunks);
        BT_ASSERT(p != nullptr, "chain states stay C6-feasible");
        ch.cost = guide(*p);
        ch.best = ch.chunks;
        ch.bestCost = ch.cost;

        const std::int64_t steps = proposals / nchains
            + (ci < proposals % nchains ? 1 : 0);
        if (steps <= 0)
            continue;
        double t = AnnealSpec::kInitialTemperature;
        const double factor = steps > 1
            ? std::pow(AnnealSpec::kFinalTemperature,
                       1.0 / static_cast<double>(steps - 1))
            : 1.0;
        for (std::int64_t s = 0; s < steps; ++s, t *= factor) {
            ++proposed_;
            if (!propose(ch))
                continue; // drawn move inapplicable to this state
            const Prediction* q = evaluate(prop_);
            if (q == nullptr)
                continue; // C6-filtered
            const double cost = guide(*q);
            const double delta = cost - ch.cost;
            bool accept = delta <= 0.0;
            if (!accept) {
                // Relative Metropolis rule: temperature scales with
                // the current cost so one spec works across guides
                // whose magnitudes differ by orders of magnitude.
                const double scale
                    = std::max(std::abs(ch.cost), 1e-12);
                accept = ch.rng.nextDouble()
                    < std::exp(-delta / (t * scale));
            }
            if (accept) {
                ch.chunks = prop_;
                ch.cost = cost;
                ++accepted_;
                if (cost < ch.bestCost) {
                    ch.best = ch.chunks;
                    ch.bestCost = cost;
                }
            }
        }
        // Hand the phase's best state to the next phase.
        ch.chunks = ch.best;
        ch.cost = ch.bestCost;
    }
}

Annealer::Stats
Annealer::stats() const
{
    Stats s;
    s.proposed = proposed_;
    s.accepted = accepted_;
    s.filtered = filtered_;
    s.distinct = static_cast<std::int64_t>(pool_.size());
    s.revisits = revisits_;
    s.chains = static_cast<int>(chains_.size());
    return s;
}

} // namespace bt::core
