/**
 * @file
 * Output checks of the repository benchmark: conservation laws the
 * library's results already expose, plus guards that a workload is
 * still what its name says. Every check returns the problems it found
 * as messages (empty = passed); the benchmark counts an iteration
 * with any problem as failed. Pure functions of their inputs, so the
 * self-tests can feed them tampered results.
 */

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "fleet/engine.h"
#include "sweep/runner.h"
#include "tenant/serve.h"

namespace perfbench
{

using Problems = std::vector<std::string>;

/** Most steps any one pod ran over all steps run (0 when none ran). */
double topPodShare(const diva::FleetResult &fleet);

/**
 * Fleet conservation: the run succeeded; placed + rejected = sessions
 * and one tenant row per session; pod steps, the fleet total and
 * tenant steps agree; fleet energy equals the pod energies within
 * rounding; no pod is busy more than the makespan.
 */
Problems checkFleet(const diva::FleetResult &fleet,
                    std::size_t sessions);

/**
 * The telemetry audit: every step's latency components rebuilt its
 * latency exactly (the library counts the misses; 0 by design).
 */
Problems checkTelemetry(std::uint64_t exactSumFailures,
                        std::uint64_t auditedSteps);

/**
 * Sweep conservation: no scenario failed, one result per expanded
 * scenario, and the report's failure count matches the results.
 */
Problems checkSweep(const diva::SweepReport &report,
                    std::size_t expanded);

/**
 * One replay with admission: it ran; one row per session; every
 * session is either admitted or rejected, rejected ones ran nothing;
 * the admitted count matches the controller's decision
 * (`expectedAdmitted`); tenant energies sum to the total.
 */
Problems checkServe(const diva::ServeResult &serve,
                    std::size_t sessions, std::size_t expectedAdmitted);

/** Share inside [min, max], else a problem naming `what`. */
Problems checkShare(const char *what, double share, double min,
                    double max);

/**
 * Count metrics that must repeat exactly across the iterations of one
 * run: the first iteration's values are the reference, and any later
 * difference (or a missing name) is a problem.
 */
class CountLedger
{
  public:
    Problems record(const std::map<std::string, double> &counts);

  private:
    bool first_ = true;
    std::map<std::string, double> reference_;
};

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
