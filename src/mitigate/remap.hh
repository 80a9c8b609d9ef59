/**
 * @file
 * Map-driven remapping of logical outputs onto spare physical rows.
 *
 * The paper's spare-output mitigation replicates *every* logical
 * output blindly (SparedOutputMlp). With a defect map, the same
 * physical spare rows can be used far more cheaply: each logical
 * output keeps its own physical row unless that row is diagnosed
 * faulty, in which case it is routed to a clean spare row. Only a
 * small steering mux per logical output is needed, and one set of
 * spares serves any number of logical outputs.
 */

#ifndef DTANN_MITIGATE_REMAP_HH
#define DTANN_MITIGATE_REMAP_HH

#include "core/accelerator.hh"
#include "mitigate/defect_map.hh"

namespace dtann {

/**
 * Plan the logical-output -> physical-row assignment for @p map:
 * row k stays at k when clean; a diagnosed-faulty row is moved to
 * the lowest clean spare row (rows logical.outputs ..
 * cfg.outputs-1). A row counts as faulty when any output-layer unit
 * on it is suspect. When spares run out, remaining faulty rows keep
 * their original position (mitigation degrades gracefully to
 * retrain-only for them).
 */
std::vector<int> planOutputRemap(const DefectMap &map,
                                 MlpTopology logical,
                                 const AcceleratorConfig &cfg);

/** ForwardModel steering logical outputs onto remapped rows. */
class RemappedOutputMlp : public ForwardModel
{
  public:
    /**
     * @param accel physical array, mapped with the extended
     *        topology {inputs, hidden, cfg.outputs} so every
     *        physical output row is addressable
     * @param logical the task network
     * @param row_map physical output row per logical output (from
     *        planOutputRemap); rows must be distinct and in range
     */
    RemappedOutputMlp(Accelerator &accel, MlpTopology logical,
                      std::vector<int> row_map);

    MlpTopology topology() const override { return logical; }

    /** Write logical output rows onto their mapped physical rows
     *  (unmapped rows hold zero weights). */
    void setWeights(const DeepWeights &w) override;

    /** Forward, reading each logical output from its mapped row. */
    Activations forward(std::span<const double> input) override;

    /** Batched forward through the accelerator's 64-lane path,
     *  steered like forward(). */
    std::vector<Activations> forwardBatch(
        std::span<const std::vector<double>> inputs) override;

    /** Work counters of the backing accelerator's faulty units. */
    SimCounters simCounters() const override
    {
        return accel.simCounters();
    }

    /** The active assignment. */
    const std::vector<int> &rowMap() const { return map; }

    /** Number of logical outputs steered away from their row. */
    int remappedCount() const;

    /** The topology the accelerator must be mapped with. */
    static MlpTopology extendedTopology(MlpTopology logical,
                                        const AcceleratorConfig &cfg);

  private:
    Accelerator &accel;
    MlpTopology logical;
    std::vector<int> map;
    /** The extended stack setWeights() installs, reused per call;
     *  rows outside the map are never written and stay zero. */
    DeepWeights steered;
};

} // namespace dtann

#endif // DTANN_MITIGATE_REMAP_HH
