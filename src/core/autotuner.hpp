/**
 * @file
 * Optimization level 3 (paper Sec. 3.3, "Autotuning"): execute the top
 * candidate schedules on the target and pick the measured-best. The
 * paper runs each candidate ~10 s on the physical device; here each
 * candidate runs through the simulated executor, whose virtual cost is
 * accumulated so the campaign cost (~200 s per device/application in the
 * paper) can be reported.
 *
 * Candidate runs are measurements (SimExecutor::measure): they record no
 * trace, whatever the executor's RunConfig::recordTrace says, because
 * the report keeps only timings and tracing never changes a timing. A
 * traced executor therefore tunes at untraced cost and still traces its
 * execute() runs, such as the facade's deployment run.
 */

#ifndef BT_CORE_AUTOTUNER_HPP
#define BT_CORE_AUTOTUNER_HPP

#include <vector>

#include "core/optimizer.hpp"
#include "core/sim_executor.hpp"

namespace bt::core {

/** One autotuned candidate: prediction next to measurement. */
struct TunedCandidate
{
    Candidate candidate;
    double measuredLatency = 0.0; ///< seconds per task (steady state)
    int rankPredicted = 0;        ///< position in the optimizer output
};

/** Outcome of a tuning campaign. */
struct TuningReport
{
    std::vector<TunedCandidate> all; ///< sorted by measured latency
    int bestIndex = 0;               ///< into `all` (measured best)
    double campaignCostSeconds = 0.0;

    const TunedCandidate& best() const
    {
        return all[static_cast<std::size_t>(bestIndex)];
    }

    /** Speedup of the measured best over the predicted-best schedule. */
    double autotuningGain() const;
};

/** Runs candidates through an executor and ranks them by measurement. */
class AutoTuner
{
  public:
    /**
     * @param window_seconds fixed virtual measurement interval charged
     *        per candidate (the paper runs each for 10 s, giving the
     *        ~200 s campaign for K = 20).
     * @param threads fan candidate executions out over this many
     *        threads (1 = serial). Every candidate run is
     *        self-contained, and results are merged in candidate
     *        order, so the report is bit-identical to the serial
     *        campaign at any thread count.
     */
    explicit AutoTuner(const SimExecutor& executor,
                       double window_seconds = 10.0, int threads = 1)
        : executor_(executor), windowSeconds(window_seconds),
          threads_(threads)
    {
    }

    /** Measure every candidate (untraced) and rank. Candidates must
     *  be non-empty. */
    TuningReport tune(const Application& app,
                      const std::vector<Candidate>& candidates) const;

  private:
    const SimExecutor& executor_;
    double windowSeconds;
    int threads_;
};

} // namespace bt::core

#endif // BT_CORE_AUTOTUNER_HPP
