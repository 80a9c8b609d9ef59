/**
 * @file
 * Partial time-multiplexing of larger networks (paper Section II
 * and the "Time-Multiplexing add-ons" of Fig 3).
 *
 * Networks that do not fit the physical array are executed by
 * treating every logical neuron as part of one large layer and
 * mapping it, pass by pass, onto the physical hidden-layer
 * neurons:
 *
 *  - up to `hidden` logical neurons run per pass;
 *  - a neuron whose fan-in exceeds the physical input count is
 *    split into input chunks; the pre-activation chunk sums are
 *    collected through the added output latches and accumulated in
 *    key logic, and the final sum is fed back through the array
 *    (weight 1.0 is exact in Q6.10) so the physical activation unit
 *    produces the neuron output;
 *  - weight rows are reloaded through the DMA write path before
 *    every pass.
 *
 * A defect in a physical neuron therefore affects every logical
 * neuron mapped onto it — the paper's point that time-multiplexing
 * "effectively multiplies the number of defects by the
 * multiplexing factor". Pass and weight-reload counters feed the
 * cost model.
 */

#ifndef DTANN_CORE_TIMEMUX_HH
#define DTANN_CORE_TIMEMUX_HH

#include "core/accelerator.hh"

namespace dtann {

/**
 * Run one logical layer (neurons sharing a fan-in) on the physical
 * array, batching neurons over the physical hidden row and chunking
 * oversized fan-ins through the key-logic accumulator. This is the
 * engine shared by the 2-layer TimeMuxedMlp and the deep-network
 * wrapper.
 *
 * @param accel physical array
 * @param rows quantized weight rows, [neuron][fanin + 1], bias last
 * @param input the layer's input activations (size = fanin)
 * @return one activation per row
 */
std::vector<Fix16> muxRunLayer(
    Accelerator &accel, const std::vector<std::vector<Fix16>> &rows,
    std::span<const Fix16> input);

/**
 * Batched muxRunLayer: run the same logical layer for up to 64
 * input rows per weight load. Each (neuron batch, chunk) weight
 * reload is hoisted out of the per-row loop and the loaded rows are
 * evaluated over all lanes through the accelerator's lane-batched
 * hidden layer, so faulty operators see 64 rows per gate-level
 * sweep instead of one.
 *
 * Caller must check accel.batchPure(): outputs are then
 * bit-identical per row to muxRunLayer() (every faulty operator is
 * a pure function, and clean latch stores are idempotent), though
 * per-unit deviation probes accumulate the same deviations in lane
 * order rather than row-major order. With stateful faulty units the
 * hoisted reload sequence would diverge — callers fall back to the
 * per-row engine instead.
 *
 * @param accel physical array
 * @param rows quantized weight rows, [neuron][fanin + 1], bias last
 * @param inputs one input activation vector per row (size = fanin)
 * @return [row][neuron] activations
 */
std::vector<std::vector<Fix16>> muxRunLayerBatch(
    Accelerator &accel, const std::vector<std::vector<Fix16>> &rows,
    const std::vector<std::vector<Fix16>> &inputs);

/** Array passes needed by muxRunLayer for this geometry. */
size_t muxLayerPasses(const AcceleratorConfig &cfg, int neurons,
                      int fanin);

/** ForwardModel running an oversized MLP on a physical array. */
class TimeMuxedMlp : public ForwardModel
{
  public:
    /**
     * @param accel physical array (defects may be injected into it)
     * @param logical network dimensions; may exceed the array's
     */
    TimeMuxedMlp(Accelerator &accel, MlpTopology logical);

    MlpTopology topology() const override { return logical; }

    /** Store and quantize weights; rows are reloaded per pass. */
    void setWeights(const DeepWeights &w) override;

    Activations forward(std::span<const double> input) override;

    /**
     * Batched forward: when every faulty unit is lane-batchable
     * (accel.batchPure()) the weight reloads of each pass are
     * hoisted across up to 64 input rows via muxRunLayerBatch();
     * otherwise falls back to the exact per-row loop. Outputs are
     * bit-identical to forward() per row either way.
     */
    std::vector<Activations> forwardBatch(
        std::span<const std::vector<double>> inputs) override;

    /** Work counters of the backing accelerator's faulty units. */
    SimCounters simCounters() const override
    {
        return accel.simCounters();
    }

    /** Array passes needed per input row. */
    size_t passesPerRow() const;

    /** Weight words written per input row (reload traffic). */
    size_t weightWordsPerRow() const;

    /** Logical neurons mapped to the busiest physical neuron. */
    int muxFactor() const;

  private:
    Accelerator &accel;
    MlpTopology logical;

    /** Quantized weight rows: [neuron][fanin + 1], bias last. */
    std::vector<std::vector<Fix16>> hidRows;
    std::vector<std::vector<Fix16>> outRows;

};

} // namespace dtann

#endif // DTANN_CORE_TIMEMUX_HH
