/**
 * @file
 * Multi-layer perceptron: topology, weight storage, and the
 * double-precision reference forward model.
 *
 * The paper's network is a 2-layer MLP (one hidden layer, sigmoid
 * activations); the Section VII extensions stack more layers. Each
 * neuron has a bias, modelled as one extra synapse whose input is
 * the constant 1. One model hierarchy serves both shapes: every
 * ForwardModel produces the full layer stack of activations, and
 * batched evaluation is the canonical entry point.
 */

#ifndef DTANN_ANN_MLP_HH
#define DTANN_ANN_MLP_HH

#include <span>
#include <vector>

#include "circuit/sim_counters.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace dtann {

/** Layer sizes of a 2-layer MLP. */
struct MlpTopology
{
    int inputs;
    int hidden;
    int outputs;

    bool operator==(const MlpTopology &o) const = default;
};

/** Layer widths, input first, output last (>= 3 entries). */
struct DeepTopology
{
    std::vector<int> layers;

    int inputs() const { return layers.front(); }
    int outputs() const { return layers.back(); }
    /** Number of weight matrices (= layers.size() - 1). */
    size_t stages() const { return layers.size() - 1; }

    bool operator==(const DeepTopology &o) const = default;

    /** True for the 2-layer stack {t.inputs, t.hidden, t.outputs}. */
    bool operator==(const MlpTopology &t) const
    {
        return layers.size() == 3 && layers[0] == t.inputs &&
            layers[1] == t.hidden && layers[2] == t.outputs;
    }
};

/** View a 2-layer topology as a layer stack. */
DeepTopology toLayerTopology(MlpTopology t);

/**
 * Dense weights of a layer stack, the one weight type every model,
 * trainer and backend shares. Stage s maps layer s to layer s+1 and
 * is stored row-major as [layers[s+1]][layers[s] + 1], bias last.
 * All stages live in one contiguous buffer, stage 0 first; a 2-layer
 * network is the 2-stage stack, read through hid() and out().
 */
class DeepWeights
{
  public:
    DeepWeights() = default;
    explicit DeepWeights(DeepTopology topo);
    /** The 2-stage stack of a 2-layer network. */
    explicit DeepWeights(MlpTopology topo)
        : DeepWeights(toLayerTopology(topo))
    {
    }

    const DeepTopology &topology() const { return topo; }

    /** Weight from unit @p i of layer @p s (bias when i equals
     *  that layer's width) to unit @p j of layer s+1. @{ */
    double &at(size_t s, int j, int i) { return values[index(s, j, i)]; }
    double at(size_t s, int j, int i) const
    {
        return values[index(s, j, i)];
    }
    /** @} */

    /** 2-layer view of stage 0: input @p i (bias when i equals the
     *  input count) to hidden neuron @p j. @{ */
    double &hid(int j, int i) { return at(0, j, i); }
    double hid(int j, int i) const { return at(0, j, i); }
    /** @} */

    /** 2-layer view of stage 1: hidden @p j (bias when j equals the
     *  hidden count) to output neuron @p k. @{ */
    double &out(int k, int j) { return at(1, k, j); }
    double out(int k, int j) const { return at(1, k, j); }
    /** @} */

    /** Stage @p s's row-major storage, [layers[s+1]][layers[s] + 1].
     *  @{ */
    std::span<double> stage(size_t s)
    {
        dtann_assert(s < topo.stages(), "stage out of range");
        return {values.data() + offsets[s], offsets[s + 1] - offsets[s]};
    }
    std::span<const double> stage(size_t s) const
    {
        return const_cast<DeepWeights *>(this)->stage(s);
    }
    /** @} */

    /** The contiguous buffer, stage 0 first, addressed by index().
     *  @{ */
    std::span<double> flat() { return values; }
    std::span<const double> flat() const { return values; }
    /** @} */

    /** Position of at(s, j, i) in the contiguous buffer. */
    size_t index(size_t s, int j, int i) const
    {
        dtann_assert(s < topo.stages(), "stage out of range");
        dtann_assert(j >= 0 && j < topo.layers[s + 1] && i >= 0 &&
                         i <= topo.layers[s],
                     "weight (%zu, %d, %d) out of range", s, j, i);
        return offsets[s] +
            static_cast<size_t>(j) *
            static_cast<size_t>(topo.layers[s] + 1) +
            static_cast<size_t>(i);
    }

    /** Uniform random initialization in [-range, range], stage 0
     *  first, each stage in storage order. */
    void initRandom(Rng &rng, double range = 0.5);

    /** Total number of weights (including biases). */
    size_t count() const { return values.size(); }

  private:
    DeepTopology topo;
    /** Stage s occupies [offsets[s], offsets[s + 1]) of values. */
    std::vector<size_t> offsets;
    std::vector<double> values;
};

/**
 * Post-activation values of every layer after the input:
 * layers.front() is the first hidden layer, layers.back() the
 * output layer. 2-layer models produce exactly two entries.
 */
struct Activations
{
    std::vector<std::vector<double>> layers;

    Activations() = default;

    /** Allocate a 2-layer record (hidden + output): three
     *  allocations, no initializer-list temporaries. */
    Activations(size_t hidden_size, size_t output_size) : layers(2)
    {
        layers[0].resize(hidden_size);
        layers[1].resize(output_size);
    }

    /** Output-layer values. @{ */
    std::vector<double> &output() { return layers.back(); }
    const std::vector<double> &output() const { return layers.back(); }
    /** @} */

    /** The hidden layer feeding the output (the only hidden layer
     *  of a 2-layer model). @{ */
    std::vector<double> &hidden() { return layers[layers.size() - 2]; }
    const std::vector<double> &hidden() const
    {
        return layers[layers.size() - 2];
    }
    /** @} */
};

/**
 * Abstract forward path.
 *
 * Training runs on a companion core holding float weights (the
 * Trainer); the forward activations may come from the float
 * reference, the fixed-point model, or the (possibly defective)
 * hardware accelerator model. This is how retraining "factors in
 * the faulty elements".
 *
 * forwardBatch() is the canonical evaluation entry point: campaign
 * test sweeps hand whole datasets to the model so faulty operators
 * can be evaluated up to 64 rows per gate-level sweep. The scalar
 * forward() is defined in terms of it; models with a cheaper native
 * scalar path (training updates weights per sample) override
 * forward() and may implement forwardBatch() with rowLoopBatch().
 * A concrete model must override at least one of the two.
 */
class ForwardModel
{
  public:
    virtual ~ForwardModel() = default;

    /** Network dimensions, collapsed to the 2-layer view
     *  {inputs, width of the layer feeding the output, outputs}
     *  (exact for 2-layer models). */
    virtual MlpTopology topology() const = 0;

    /** Full layer stack; the default is the 2-layer topology(). */
    virtual DeepTopology layerTopology() const;

    /** Install a full weight stack matching layerTopology();
     *  hardware models quantize it into their weight latches. */
    virtual void setWeights(const DeepWeights &w) = 0;

    /** Run one input row; the default evaluates a 1-row batch. */
    virtual Activations forward(std::span<const double> input);

    /**
     * Run a batch of input rows — the canonical entry point.
     * Results are semantically identical to calling forward() on
     * each row in order; hardware models push rows through their
     * faulty operators 64 lanes per gate-level sweep.
     */
    virtual std::vector<Activations>
    forwardBatch(std::span<const std::vector<double>> inputs) = 0;

    /** Gate-evaluation work of any underlying faulty-operator
     *  simulations (zero for native models). Wrapper models report
     *  their backing Accelerator's counters. */
    virtual SimCounters simCounters() const { return {}; }

  protected:
    /** Row-at-a-time batch fallback: exact per-row semantics for
     *  models without (or temporarily denied) a lane-batched path. */
    std::vector<Activations>
    rowLoopBatch(std::span<const std::vector<double>> inputs);
};

/** Double-precision reference MLP (exact sigmoid). */
class FloatMlp : public ForwardModel
{
  public:
    explicit FloatMlp(MlpTopology topo) : topo(topo), weights(topo) {}

    MlpTopology topology() const override { return topo; }
    void setWeights(const DeepWeights &w) override;
    Activations forward(std::span<const double> input) override;
    std::vector<Activations> forwardBatch(
        std::span<const std::vector<double>> inputs) override
    {
        return rowLoopBatch(inputs); // native arithmetic: a row loop
                                     // is already the fastest path
    }

  private:
    MlpTopology topo;
    DeepWeights weights;
};

} // namespace dtann

#endif // DTANN_ANN_MLP_HH
