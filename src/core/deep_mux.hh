/**
 * @file
 * Deep networks on the physical array (paper future work: "we want
 * to increase the size of the neural networks that can be mapped
 * ... in order to efficiently tackle very large networks, such as
 * Deep Networks").
 *
 * Every layer of the stack is executed by the shared
 * muxRunLayer engine: neurons batched over the physical hidden
 * row, oversized fan-ins chunked through the key-logic
 * accumulator. Defects injected into the physical array therefore
 * touch every logical layer mapped across it.
 */

#ifndef DTANN_CORE_DEEP_MUX_HH
#define DTANN_CORE_DEEP_MUX_HH

#include "core/timemux.hh"

namespace dtann {

/** Accelerator-backed deep-network ForwardModel. */
class DeepMuxedNetwork : public ForwardModel
{
  public:
    /**
     * @param accel physical array (any logical mapping)
     * @param topo layer stack to execute
     */
    DeepMuxedNetwork(Accelerator &accel, DeepTopology topo);

    /** 2-layer view: {inputs, last hidden width, outputs}. */
    MlpTopology topology() const override;
    DeepTopology layerTopology() const override { return topo; }

    /** Quantize all stages; rows reload per pass. */
    void setWeights(const DeepWeights &w) override;

    Activations forward(std::span<const double> input) override;

    /**
     * Batched forward: when every faulty unit is lane-batchable
     * (accel.batchPure()) each stage runs through
     * muxRunLayerBatch() — weight reloads hoisted across up to 64
     * rows — otherwise the exact per-row loop. Outputs are
     * bit-identical to forward() per row either way.
     */
    std::vector<Activations> forwardBatch(
        std::span<const std::vector<double>> inputs) override;

    /** Work counters of the backing accelerator's faulty units. */
    SimCounters simCounters() const override
    {
        return accel.simCounters();
    }

    /** Array passes per input row over the whole stack. */
    size_t passesPerRow() const;

  private:
    Accelerator &accel;
    DeepTopology topo;
    /** Quantized rows per stage: [stage][neuron][fanin + 1]. */
    std::vector<std::vector<std::vector<Fix16>>> stageRows;
};

} // namespace dtann

#endif // DTANN_CORE_DEEP_MUX_HH
