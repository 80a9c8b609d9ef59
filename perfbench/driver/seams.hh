/**
 * @file
 * Timing wrappers around the two seams the campaign runners already
 * expose, so layers are measured from outside the library:
 *
 *  - TimedContextCache (SharedContextCache): builds every task
 *    context / netlist directly, as an offline run does, and records
 *    the host interval of each build. Set-up time is the wall time
 *    during which at least one build was running (dataset synthesis
 *    plus clean baseline training for network campaigns, netlist
 *    construction for Fig 5).
 *  - TimedJournal (CellCache): forwards to a ResultJournal. Runners
 *    call lookup() before a cell computes and store() after it, so
 *    the pair brackets each cell. Recording takes no lock, so the
 *    seam adds no contention of its own to the runners' workers.
 */

#ifndef PERFBENCH_SEAMS_HH
#define PERFBENCH_SEAMS_HH

#include <atomic>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "core/campaign.hh"
#include "service/journal.hh"

namespace perfbench {

class TimedContextCache final : public dtann::SharedContextCache
{
  public:
    std::shared_ptr<const dtann::TaskContext>
    task(const std::string &key,
         const std::function<dtann::TaskContext()> &build) override;

    std::shared_ptr<const dtann::Netlist>
    netlist(const std::string &key,
            const std::function<dtann::Netlist()> &build) override;

    /** Wall seconds covered by the union of the build intervals. */
    double busyWall() const;

  private:
    void record(double t0, double t1);

    mutable std::mutex mu;
    std::vector<std::pair<double, double>> builds; ///< guarded by mu
};

class TimedJournal final : public dtann::CellCache
{
  public:
    /** @p capacity: the most cells one campaign stores (its plan). */
    TimedJournal(dtann::ResultJournal &inner, size_t capacity)
        : inner(inner), slots(capacity)
    {
    }

    bool lookup(const dtann::CellKey &key, std::string &payload) override;
    void store(const dtann::CellKey &key,
               const std::string &payload) override;

    /** One computed cell: seam start (lookup) to end (store). */
    struct Cell
    {
        double start = 0.0, end = 0.0;
    };
    /** Cells by canonical key; call once the campaign has returned. */
    std::map<std::string, Cell> cells() const;

  private:
    dtann::ResultJournal &inner;
    /** Lock-free append: each store() claims one slot. A cell's
     *  lookup() and store() run on the same worker thread. */
    std::vector<std::pair<std::string, Cell>> slots;
    std::atomic<size_t> used{0};
};

} // namespace perfbench

#endif // PERFBENCH_SEAMS_HH
