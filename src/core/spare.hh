/**
 * @file
 * Spare (redundant) output neurons — the paper's second mitigation
 * for the defect-sensitive output layer (Section VI-C: "simply add
 * spare (redundant) output neurons ... as technology scales down,
 * the latter method will become more area efficient").
 *
 * Each logical output class is computed by a group of physical
 * output rows carrying identical weights; a small key-logic
 * combiner merges the group. Two copies average (halving a
 * defect's reach); three copies take the median, which completely
 * rejects a single broken copy — including stuck-high activations
 * that an averager cannot outvote.
 *
 * One model, OutputGroupMlp, serves every way of choosing the
 * groups: blind copies of every output (spareGroups), and the
 * map-driven plans of mitigate/spare_rows — a diagnosed row moved
 * onto a spare (a one-row group) or voted with spares.
 */

#ifndef DTANN_CORE_SPARE_HH
#define DTANN_CORE_SPARE_HH

#include "core/accelerator.hh"

namespace dtann {

/**
 * The key-logic copy-combine rule: odd copy counts take the exact
 * median — rejecting any single broken copy, including stuck-high
 * outputs an averager cannot outvote — and even counts take the
 * mean of the middle pair (a plain average for 2 copies). One copy
 * votes for itself. Sorts @p copy_vals in place.
 */
double medianVote(std::vector<double> &copy_vals);

/** ForwardModel voting a group of physical output rows per logical
 *  output. */
class OutputGroupMlp : public ForwardModel
{
  public:
    /**
     * @param accel physical array; its inputs and hidden width must
     *        match @p logical, its outputs address every group row
     * @param logical the task network
     * @param groups physical output rows voting for each logical
     *        output: one non-empty group per output, every row in
     *        range and used by at most one group
     */
    OutputGroupMlp(HardwareBackend &accel, MlpTopology logical,
                   std::vector<std::vector<int>> groups);

    MlpTopology topology() const override { return logical; }

    /** Write logical output row k onto every row of its group and
     *  install (rows outside every group hold zero weights). */
    void setWeights(const DeepWeights &w) override;

    /** Forward, voting each logical output over its group. */
    Activations forward(std::span<const double> input) override;

    /** Batched forward through the array's lane path; the vote runs
     *  per row, so results are bit-identical to forward() (probes
     *  and counters included). */
    std::vector<Activations> forwardBatch(
        std::span<const std::vector<double>> inputs) override;

    /** Work counters of the backing array's faulty units. */
    SimCounters simCounters() const override
    {
        return accel.simCounters();
    }

    /** Group rows outside the logical output range, i.e. the spare
     *  rows the plan occupies. */
    int spareRowsUsed() const;

  private:
    HardwareBackend &accel;
    MlpTopology logical;
    std::vector<std::vector<int>> groups;
    /** The physical stack setWeights() installs, reused per call;
     *  rows outside every group are never written and stay zero. */
    DeepWeights phys;

    /** Merge one physical row of activations into @p act. */
    void vote(const Activations &phys_act, Activations &act) const;
};

/**
 * Build the accelerator-side logical topology for a spared
 * network: outputs replicated @p copies times.
 */
MlpTopology sparedTopology(MlpTopology logical, int copies = 2);

/**
 * The blind-sparing groups of sparedTopology(): logical output k is
 * voted over rows {k, k + L, k + 2L, ...}, one per copy (L is
 * logical.outputs).
 */
std::vector<std::vector<int>> spareGroups(MlpTopology logical,
                                          int copies = 2);

} // namespace dtann

#endif // DTANN_CORE_SPARE_HH
