/**
 * @file
 * The daemon_jobs workload: a spawned dtannd driven closed-loop by
 * client threads over CampaignClient.
 */

#ifndef PERFBENCH_DAEMON_HH
#define PERFBENCH_DAEMON_HH

#include <string>

#include "bench.hh"

namespace perfbench {

/**
 * Run daemon_jobs: cache warm-up, the measured closed loop, set-up
 * samples (spawn → port file → /metrics answering), a drain
 * shutdown, and the output checks. With o.trace the loop runs once
 * untraced and once with client-side spans, and the reference jobs
 * are replayed offline for layer metrics.
 */
void runDaemonWorkload(const Options &o, const std::string &traceOut,
                       Report &report);

} // namespace perfbench

#endif // PERFBENCH_DAEMON_HH
