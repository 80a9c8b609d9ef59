/**
 * @file
 * The per-layer metric set, named by library module. Every traced
 * run reports every metric (0 where a layer does no work on that
 * workload), so each workload prints the same keys.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <map>
#include <string>

#include "bench.hh"
#include "circuit/sim_counters.hh"
#include "replay.hh"
#include "seams.hh"

namespace perfbench {

/**
 * Faithfulness: every replayed cell's payload must equal @p journal's
 * payload under the same CellKey; each mismatch is a failure.
 */
void checkReplay(const ReplayResult &replay,
                 const std::map<std::string, std::string> &journal,
                 Report &report);

class LayerMetrics
{
  public:
    LayerMetrics();

    /** Update a known metric; each throws on an unknown name. */
    void set(const std::string &name, double value);
    void add(const std::string &name, double value);
    /** Multiply a known metric by @p factor. */
    void scale(const std::string &name, double factor);

    /** circuit.*: the envelope's deterministic work counters. */
    void addSim(const dtann::SimCounters &sim);

    /** core.cell_*, core.worker_idle_frac from the CellCache seam. */
    void addSeamCells(const std::map<std::string, TimedJournal::Cell> &cells,
                      int threads);

    /**
     * Layer self times and counts from a traced replay; seam time
     * not covered by layer spans is reported as
     * trace.uncovered_frac.
     */
    void addReplay(const ReplayResult &replay,
                   const std::map<std::string, TimedJournal::Cell> &seam);

    void emit(Report &report) const;

  private:
    /** The value of a known metric; throws on an unknown name. */
    double &at(const std::string &name);

    std::map<std::string, std::pair<double, std::string>> m;
    uint64_t operatorVectors = 0; ///< applyLanes vectors replayed
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
