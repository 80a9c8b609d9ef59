/**
 * @file
 * Deep (multi-hidden-layer) feed-forward networks.
 *
 * The paper's future work targets Deep Networks ("ANNs made of a
 * large number of wide layers ... recently shown to outperform
 * SVMs") mapped onto the array via time-multiplexing. This module
 * holds the float reference for an arbitrary stack of sigmoid
 * layers on the unified ForwardModel hierarchy; layer stacks are
 * described by DeepTopology/DeepWeights (ann/mlp.hh) and trained by
 * the one staged Trainer (ann/trainer.hh). The accelerator-backed
 * counterpart lives in core/deep_mux.hh.
 */

#ifndef DTANN_ANN_DEEP_HH
#define DTANN_ANN_DEEP_HH

#include "ann/mlp.hh"

namespace dtann {

/** Double-precision reference deep network (exact sigmoid). */
class FloatDeepMlp : public ForwardModel
{
  public:
    explicit FloatDeepMlp(DeepTopology topo)
        : topo(std::move(topo)), weights(this->topo)
    {
    }

    /** 2-layer view: {inputs, last hidden width, outputs}. */
    MlpTopology topology() const override;
    DeepTopology layerTopology() const override { return topo; }
    void setWeights(const DeepWeights &w) override;
    Activations forward(std::span<const double> input) override;
    std::vector<Activations> forwardBatch(
        std::span<const std::vector<double>> inputs) override
    {
        return rowLoopBatch(inputs); // native arithmetic: a row loop
                                     // is already the fastest path
    }

  private:
    DeepTopology topo;
    DeepWeights weights;
};

} // namespace dtann

#endif // DTANN_ANN_DEEP_HH
