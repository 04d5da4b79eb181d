#include "core/schedule_eval.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace bt::core {

ScheduleEvaluator::ScheduleEvaluator(
    const platform::SocDescription& soc, const ProfilingTable& table,
    const platform::PerfModel& power_model,
    const platform::ContentionProfile* contention)
    : soc_(soc), table_(table), powerModel_(power_model),
      contention_(contention), numStages_(table.numStages()),
      numPus_(table.numPus())
{
    BT_ASSERT(table_.numPus() == soc_.numPus(),
              "profiling table PU count does not match device");
    BT_ASSERT(numPus_ <= 64, "the used-PU mask holds 64 classes");
    if (contention_) {
        BT_ASSERT(contention_->numStages == numStages_
                      && contention_->numPus == numPus_,
                  "contention profile grid does not match table");
        bucketChunkTimes_.resize(
            static_cast<std::size_t>(contention_->numBuckets));
    }

    // Fill the chunk-time table by extending each range one stage at a
    // time: time(f, l) = time(f, l - 1) + at(l, p). This is the exact
    // left-fold rangeTime performs, so every entry is bit-identical to
    // the from-scratch sum.
    chunkTimes_.assign(static_cast<std::size_t>(numStages_)
                           * static_cast<std::size_t>(numStages_)
                           * static_cast<std::size_t>(numPus_),
                       0.0);
    for (int p = 0; p < numPus_; ++p) {
        for (int first = 0; first < numStages_; ++first) {
            double acc = 0.0;
            for (int last = first; last < numStages_; ++last) {
                acc += table_.at(last, p);
                chunkTimes_[chunkIndex(first, last, p)] = acc;
            }
        }
    }

    // The energy fold's power terms, read once: active power by (PU,
    // busy others), idle power by PU.
    for (int p = 0; p < numPus_; ++p) {
        for (int busy = 0; busy < numPus_; ++busy)
            activeW_.push_back(powerModel_.activePowerW(p, busy));
        idleW_.push_back(soc_.pu(p).idlePowerW);
    }
}

const std::vector<double>&
ScheduleEvaluator::chunkTable(int bucket)
{
    if (bucket == 0)
        return chunkTimes_;
    BT_ASSERT(contention_ != nullptr,
              "bucketed prediction without a contention profile");
    BT_ASSERT(bucket > 0 && bucket < contention_->numBuckets,
              "ambient bucket ", bucket, " out of range");
    std::vector<double>& times
        = bucketChunkTimes_[static_cast<std::size_t>(bucket)];
    if (!times.empty())
        return times;

    // Same left-fold as the base table, over stretched cells: each
    // stage's contribution is its base time times the profile's
    // slowdown under this ambient bucket.
    times.assign(chunkTimes_.size(), 0.0);
    for (int p = 0; p < numPus_; ++p) {
        for (int first = 0; first < numStages_; ++first) {
            double acc = 0.0;
            for (int last = first; last < numStages_; ++last) {
                acc += table_.at(last, p)
                    * contention_->stretch(last, p, bucket);
                times[chunkIndex(first, last, p)] = acc;
            }
        }
    }
    return times;
}

Prediction
ScheduleEvaluator::evaluate(std::span<const Chunk> chunks, int bucket)
{
    const std::vector<double>& times = chunkTable(bucket);

    // Latency and gapness are max/min folds over the chunk times in
    // stage order, identical to Schedule::bottleneckTime / gapness.
    Prediction pred;
    double worst = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    std::uint64_t used = 0; ///< bit p: a chunk runs on PU p
    int next = 0;           ///< first stage the next chunk must start at
    for (const Chunk& c : chunks) {
        BT_ASSERT(c.firstStage == next && c.lastStage >= c.firstStage
                      && c.lastStage < numStages_,
                  "chunks must tile the ", numStages_, " stages");
        BT_ASSERT(c.pu >= 0 && c.pu < numPus_, "stage ", c.firstStage,
                  " assigned to unknown PU ", c.pu);
        BT_ASSERT((used >> c.pu & 1u) == 0,
                  "PU ", c.pu, " used by two chunks (violates C2)");
        used |= std::uint64_t{1} << c.pu;
        next = c.lastStage + 1;
        const double t = times[chunkIndex(c.firstStage, c.lastStage, c.pu)];
        worst = std::max(worst, t);
        if (pred.numChunks == 0) {
            lo = t;
            hi = t;
        } else {
            lo = std::min(lo, t);
            hi = std::max(hi, t);
        }
        if (contention_) {
            // A chunk's DRAM draw is its hungriest stage (stages run
            // back-to-back); the schedule's aggregate is the sum over
            // chunks, matching aggregateDemandMilli.
            std::int64_t chunk_demand = 0;
            for (int i = c.firstStage; i <= c.lastStage; ++i)
                chunk_demand = std::max(
                    chunk_demand, contention_->demandMilli(i, c.pu));
            pred.demandMilli += chunk_demand;
        }
        ++pred.numChunks;
    }
    BT_ASSERT(next == numStages_, "chunks cover ", next, " of ",
              numStages_, " stages");
    pred.latency = worst;
    pred.gapness = hi - lo;
    pred.demandGbps = static_cast<double>(pred.demandMilli) / 1000.0;

    // Predicted per-task energy: each used PU is active for its chunk
    // time (duty-cycled against the bottleneck interval), idle for the
    // rest; PUs without a chunk idle throughout; plus the uncore floor.
    const double interval = pred.latency;
    const int busy_others = pred.numChunks - 1;
    double energy = soc_.basePowerW * interval;
    for (const Chunk& c : chunks) {
        const auto pu = static_cast<std::size_t>(c.pu);
        const double active
            = times[chunkIndex(c.firstStage, c.lastStage, c.pu)];
        energy += active
                * activeW_[pu * static_cast<std::size_t>(numPus_)
                           + static_cast<std::size_t>(busy_others)]
            + std::max(0.0, interval - active) * idleW_[pu];
    }
    for (int p = 0; p < numPus_; ++p)
        if ((used >> p & 1u) == 0)
            energy += interval * idleW_[static_cast<std::size_t>(p)];
    pred.energyJ = energy;
    return pred;
}

} // namespace bt::core
