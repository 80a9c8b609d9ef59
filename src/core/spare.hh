/**
 * @file
 * Spare (redundant) output neurons — the paper's second mitigation
 * for the defect-sensitive output layer (Section VI-C: "simply add
 * spare (redundant) output neurons ... as technology scales down,
 * the latter method will become more area efficient").
 *
 * Each logical output class is computed by N physical output
 * neurons carrying identical weights; a small key-logic combiner
 * merges the copies. Two copies average (halving a defect's
 * reach); three copies take the median, which completely rejects a
 * single broken copy — including stuck-high activations that an
 * averager cannot outvote.
 */

#ifndef DTANN_CORE_SPARE_HH
#define DTANN_CORE_SPARE_HH

#include "core/accelerator.hh"

namespace dtann {

/**
 * The key-logic copy-combine rule shared by every redundant-output
 * path (blind spares here, diagnosed replication in
 * mitigate/replicate): odd copy counts take the exact median —
 * rejecting any single broken copy, including stuck-high outputs an
 * averager cannot outvote — and even counts take the mean of the
 * middle pair (a plain average for 2 copies). Sorts @p copy_vals in
 * place.
 */
double medianVote(std::vector<double> &copy_vals);

/** ForwardModel replicating every logical output N times. */
class SparedOutputMlp : public ForwardModel
{
  public:
    /**
     * @param accel physical array; must provide at least
     *        copies x logical.outputs physical output neurons
     * @param logical the task network (its outputs get spares)
     * @param copies physical copies per logical output (2 =
     *        average, 3 = median)
     */
    SparedOutputMlp(Accelerator &accel, MlpTopology logical,
                    int copies = 2);

    MlpTopology topology() const override { return logical; }

    /** Duplicate output rows onto the spares and install. */
    void setWeights(const DeepWeights &w) override;

    /** Forward with the copy combiner (average or median). */
    Activations forward(std::span<const double> input) override;

    /** Batched forward through the accelerator's 64-lane path; the
     *  copy combiner runs per row, so results are bit-identical to
     *  forward() (probes and counters included). */
    std::vector<Activations> forwardBatch(
        std::span<const std::vector<double>> inputs) override;

    /** Work counters of the backing accelerator's faulty units. */
    SimCounters simCounters() const override
    {
        return accel.simCounters();
    }

    /** The replicated-output topology the array actually runs. */
    MlpTopology physicalTopology() const { return replicated; }

    /** Copies per logical output. */
    int copyCount() const { return copies; }

  private:
    Accelerator &accel;
    MlpTopology logical;
    MlpTopology replicated;
    int copies;
    /** The replicated stack setWeights() installs, reused per call. */
    DeepWeights dup;
};

/**
 * Build the accelerator-side logical topology for a spared
 * network: outputs replicated @p copies times.
 */
MlpTopology sparedTopology(MlpTopology logical, int copies = 2);

} // namespace dtann

#endif // DTANN_CORE_SPARE_HH
