/**
 * @file
 * Spec admission: expand a parsed scenario spec into its cell plan
 * without running anything.
 *
 * planSpec() groups the cell table the campaign runners will
 * schedule into (task, variant, repetitions) rows. It calls the same
 * per-kind enumeration the runners do (fig5Cells, fig10Cells, ...),
 * which also validates task names, so the daemon's advertised cell
 * count always matches what a run resolves (ScenarioResult.cells),
 * which the service tests assert. The daemon admits every submitted
 * job through it (rejecting bad specs before they reach the queue,
 * and sizing the job's progress fraction), and `dtann_campaign
 * --validate` prints it as a dry run.
 */

#ifndef DTANN_SERVICE_PLAN_HH
#define DTANN_SERVICE_PLAN_HH

#include <cstddef>
#include <string>
#include <vector>

#include "service/spec.hh"

namespace dtann {

/** One (task, variant) group of identical-shape cells. */
struct PlanRow
{
    std::string task;    ///< task or operator name
    std::string variant; ///< swept-axis coordinates (CellKey form)
    size_t reps = 0;     ///< repetitions scheduled for the group
};

/** The expanded cell plan of one spec. */
struct SpecPlan
{
    size_t cells = 0; ///< total cells (== ScenarioResult.cells)
    std::vector<PlanRow> rows;
};

/**
 * Expand @p spec into its plan. Runs the same enumeration and
 * validation as the runners (unknown task names etc. throw
 * JsonError), so a spec that plans cleanly is admissible.
 */
SpecPlan planSpec(const ScenarioSpec &spec);

} // namespace dtann

#endif // DTANN_SERVICE_PLAN_HH
