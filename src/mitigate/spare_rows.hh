/**
 * @file
 * Map-driven use of the spare physical output rows.
 *
 * The paper's spare-output mitigation copies *every* logical output
 * blindly (core/spare's spareGroups). With a defect map, the same
 * spare rows can be spent only where BIST found a fault, under one
 * of two policies:
 *
 *  - remap: a diagnosed-faulty logical output is *moved* onto a
 *    clean spare row — one small steering mux per output, one spare
 *    per faulty row;
 *  - replicate (RedMulE-FT style replication + voting): the suspect
 *    row stays and recruits up to two clean spares, and the median
 *    voter merges the copies. A median-of-3 rejects the broken copy
 *    even when the diagnosis is wrong about *which* unit failed —
 *    the robustness margin remapping lacks — at the price of two
 *    spare rows per critical output instead of one.
 *
 * Both planners return the output groups OutputGroupMlp votes over;
 * the array is mapped with spareRowTopology() so every physical
 * output row is addressable (and diagnosable before planning).
 */

#ifndef DTANN_MITIGATE_SPARE_ROWS_HH
#define DTANN_MITIGATE_SPARE_ROWS_HH

#include "core/spare.hh"
#include "mitigate/defect_map.hh"

namespace dtann {

/**
 * The topology a spare-row strategy maps the array with: the task's
 * inputs and hidden width, and every physical output row.
 */
MlpTopology spareRowTopology(MlpTopology logical,
                             const AcceleratorConfig &cfg);

/**
 * Plan remapping for @p map: logical output k keeps row k when
 * clean; a diagnosed-faulty row is moved to the lowest clean spare
 * row (rows logical.outputs .. cfg.outputs-1), so every group holds
 * exactly one row. A row counts as faulty when any output-layer unit
 * on it is suspect. When spares run out, remaining faulty rows keep
 * their original position (mitigation degrades gracefully to
 * retrain-only for them).
 */
std::vector<std::vector<int>>
planOutputRemap(const DefectMap &map, MlpTopology logical,
                const AcceleratorConfig &cfg);

/**
 * Plan replication for @p map: group k lists the physical output
 * rows voting for logical output k, the original row k always
 * first. Clean rows stay singleton (no vote). A diagnosed-faulty row
 * recruits up to two clean spare rows (taken in ascending order,
 * each used once) for a median-of-3; when only one spare remains the
 * pair averages (halving the deviation); when spares run out the row
 * degrades gracefully to retrain-only. Faulty rows are judged as in
 * planOutputRemap().
 */
std::vector<std::vector<int>>
planOutputReplication(const DefectMap &map, MlpTopology logical,
                      const AcceleratorConfig &cfg);

} // namespace dtann

#endif // DTANN_MITIGATE_SPARE_ROWS_HH
