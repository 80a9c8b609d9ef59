#include "ann/trainer.hh"

#include "ann/sigmoid.hh"
#include "common/logging.hh"

namespace dtann {

DeepWeights
Trainer::train(ForwardModel &model, const Dataset &train_set, Rng &rng,
               const DeepWeights *init) const
{
    DeepTopology topo = model.layerTopology();
    dtann_assert(topo.inputs() == train_set.numAttributes,
                 "dataset arity mismatch");
    dtann_assert(topo.outputs() >= train_set.numClasses,
                 "too few outputs for dataset classes");

    DeepWeights w(topo);
    if (init) {
        dtann_assert(init->topology() == topo,
                     "init weight topology mismatch");
        w = *init;
    } else {
        w.initRandom(rng);
    }
    DeepWeights delta(topo); // momentum memory, zero-initialized

    // Pruned synapses stay at exactly zero: cleared out of the
    // warm start, and re-cleared after every update so neither the
    // gradient step nor the momentum memory can revive them. The
    // mask is resolved to flat positions once (index() range-checks
    // each entry); w and delta share the layout.
    std::vector<size_t> pruned;
    pruned.reserve(prune.size());
    for (const PrunedSynapse &p : prune)
        pruned.push_back(w.index(p.stage, p.neuron, p.input));
    std::span<double> w_flat = w.flat(), delta_flat = delta.flat();
    auto applyPruneMask = [&] {
        for (size_t i : pruned) {
            w_flat[i] = 0.0;
            delta_flat[i] = 0.0;
        }
    };
    applyPruneMask();
    model.setWeights(w);

    // Per-layer gradient buffers.
    std::vector<std::vector<double>> grad(topo.stages());
    for (size_t s = 0; s < topo.stages(); ++s)
        grad[s].resize(static_cast<size_t>(topo.layers[s + 1]));

    runTrainingEpochs(
        model, train_set, rng, hyper.epochs, [&](size_t n) {
            const auto &x = train_set.rows[n];
            Activations act = model.forward(x);
            const auto &acts = act.layers;

            // Output-layer gradients from post-activation values.
            size_t last = topo.stages() - 1;
            for (int k = 0; k < topo.outputs(); ++k) {
                double y = acts[last][static_cast<size_t>(k)];
                double t = k == train_set.labels[n] ? 1.0 : 0.0;
                grad[last][static_cast<size_t>(k)] =
                    logisticDerivFromY(y) * (t - y);
            }
            // Back-propagate through the hidden stages.
            for (size_t s = last; s-- > 0;) {
                int width = topo.layers[s + 1];
                int above = topo.layers[s + 2];
                std::span<const double> w_above = w.stage(s + 1);
                size_t stride = static_cast<size_t>(width + 1);
                for (int j = 0; j < width; ++j) {
                    double back = 0.0;
                    for (int k = 0; k < above; ++k)
                        back += grad[s + 1][static_cast<size_t>(k)] *
                            w_above[static_cast<size_t>(k) * stride +
                                    static_cast<size_t>(j)];
                    grad[s][static_cast<size_t>(j)] =
                        logisticDerivFromY(
                            acts[s][static_cast<size_t>(j)]) *
                        back;
                }
            }
            // Updates with momentum, row by row over the flat stages;
            // layer s's input is acts[s-1] (or the row itself for
            // s = 0).
            for (size_t s = 0; s < topo.stages(); ++s) {
                int fanin = topo.layers[s];
                int width = topo.layers[s + 1];
                size_t stride = static_cast<size_t>(fanin + 1);
                const double *in_vals = s == 0 ? x.data()
                                               : acts[s - 1].data();
                double *w_row = w.stage(s).data();
                double *d_row = delta.stage(s).data();
                for (int j = 0; j < width;
                     ++j, w_row += stride, d_row += stride) {
                    double g = grad[s][static_cast<size_t>(j)];
                    for (int i = 0; i < fanin; ++i) {
                        double d = hyper.learningRate * g * in_vals[i] +
                            hyper.momentum * d_row[i];
                        d_row[i] = d;
                        w_row[i] += d;
                    }
                    double db = hyper.learningRate * g +
                        hyper.momentum * d_row[fanin];
                    d_row[fanin] = db;
                    w_row[fanin] += db;
                }
            }
            applyPruneMask();
            model.setWeights(w);
        });
    return w;
}

} // namespace dtann
