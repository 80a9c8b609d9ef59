/**
 * @file
 * Output checks applied to every envelope the benchmark receives.
 *
 * Simulated statistics are deterministic, so every comparison here
 * is exact: the cell count equals planSpec(spec).cells, every
 * accuracy lies in [0,1], every point (or Fig 5 histogram) equals
 * the re-aggregation of its journaled cells in cell order, and the
 * envelope's sim totals equal both the sum of its per-curve counters
 * and the sum of the per-cell payloads journaled for the run.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <map>
#include <string>
#include <vector>

#include "circuit/sim_counters.hh"
#include "service/spec.hh"

namespace perfbench {

/** Journaled cells of one results journal: canonical key -> payload. */
std::map<std::string, std::string> readJournal(const std::string &path);

/**
 * Check @p envelope for @p spec against @p journal.
 * @return one message per violated invariant (empty = all hold)
 */
std::vector<std::string>
checkEnvelope(const dtann::ScenarioSpec &spec, const std::string &envelope,
              const std::map<std::string, std::string> &journal);

/** The envelope's "sim" and "results" members, for digests. */
std::string digestMaterial(const std::string &envelope);

/** The envelope's top-level sim counters. */
dtann::SimCounters envelopeSim(const std::string &envelope);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
