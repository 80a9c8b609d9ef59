/**
 * @file
 * Map-driven selective replication of critical output neurons onto
 * spare rows, RedMulE-FT style (replication + voting).
 *
 * Where RemapToSpares *moves* a diagnosed-faulty logical output off
 * its physical row, replication keeps the suspect row in place and
 * recruits spare rows to compute additional copies of the same
 * logical output; the spare-array median voter (core/spare's
 * medianVote rule) merges the copies. With two clean spares the
 * vote is a median-of-3 that rejects the broken copy outright even
 * when the diagnosis is wrong about *which* unit failed — the
 * robustness margin remapping lacks — at the price of burning two
 * spare rows per critical output instead of one.
 */

#ifndef DTANN_MITIGATE_REPLICATE_HH
#define DTANN_MITIGATE_REPLICATE_HH

#include "core/accelerator.hh"
#include "mitigate/defect_map.hh"

namespace dtann {

/**
 * Plan the replication groups for @p map: entry k lists the
 * physical output rows voting for logical output k, the original
 * row k always first. Clean rows stay singleton (no vote). A
 * diagnosed-faulty row recruits up to two clean spare rows (rows
 * logical.outputs .. cfg.outputs-1, taken in ascending order, each
 * used once) for a median-of-3; when only one spare remains the
 * pair averages (halving the deviation); when spares run out the
 * row degrades gracefully to retrain-only. A row counts as faulty
 * when any output-layer unit on it is suspect.
 */
std::vector<std::vector<int>>
planOutputReplication(const DefectMap &map, MlpTopology logical,
                      const AcceleratorConfig &cfg);

/** ForwardModel voting replicated output rows per logical output. */
class ReplicatedOutputMlp : public ForwardModel
{
  public:
    /**
     * @param accel physical array, mapped with the extended
     *        topology {inputs, hidden, cfg.outputs} so every
     *        physical output row is addressable
     * @param logical the task network
     * @param groups voting rows per logical output (from
     *        planOutputReplication); rows must be distinct across
     *        all groups and in range
     */
    ReplicatedOutputMlp(Accelerator &accel, MlpTopology logical,
                        std::vector<std::vector<int>> groups);

    MlpTopology topology() const override { return logical; }

    /** Write logical output row k onto every row of its group
     *  (unused rows hold zero weights). */
    void setWeights(const DeepWeights &w) override;

    /** Forward, voting each logical output over its group. */
    Activations forward(std::span<const double> input) override;

    /** Batched forward through the accelerator's lane path, voting
     *  per row like forward(). */
    std::vector<Activations> forwardBatch(
        std::span<const std::vector<double>> inputs) override;

    /** Work counters of the backing accelerator's faulty units. */
    SimCounters simCounters() const override
    {
        return accel.simCounters();
    }

    /** The active replication groups. */
    const std::vector<std::vector<int>> &replicationGroups() const
    {
        return groups;
    }

    /** Spare rows recruited beyond the original ones. */
    int spareRowsUsed() const;

    /** The topology the accelerator must be mapped with (same
     *  extended mapping the remap strategy uses). */
    static MlpTopology extendedTopology(MlpTopology logical,
                                        const AcceleratorConfig &cfg);

  private:
    Accelerator &accel;
    MlpTopology logical;
    std::vector<std::vector<int>> groups;
    /** The extended stack setWeights() installs, reused per call;
     *  rows outside every group are never written and stay zero. */
    DeepWeights dup;

    /** Vote one physical output vector into logical outputs. */
    void vote(const std::vector<double> &phys,
              std::vector<double> &out) const;
};

} // namespace dtann

#endif // DTANN_MITIGATE_REPLICATE_HH
