#include "ann/fixed_trainer.hh"

#include <vector>

#include "common/logging.hh"

namespace dtann {

namespace {

/** Saturating multiply-accumulate helper. */
Fix16
mac(Fix16 acc, Fix16 a, Fix16 b)
{
    return Fix16::satAdd(acc, Fix16::satMul(a, b));
}

} // namespace

DeepWeights
FixedTrainer::train(ForwardModel &model, const Dataset &train_set,
                    Rng &rng, const DeepWeights *init) const
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

    // Q6.10 shadow weights in the same flat stage layout as w.
    std::vector<Fix16> sw(w.count());
    auto at = [&](size_t s, int j, int i) -> Fix16 & {
        return sw[w.index(s, j, i)];
    };
    for (size_t s = 0; s < topo.stages(); ++s) {
        std::span<const double> stage = w.stage(s);
        Fix16 *dst = &at(s, 0, 0);
        for (size_t k = 0; k < stage.size(); ++k)
            dst[k] = Fix16::fromDouble(stage[k]);
    }

    auto push = [&]() {
        for (size_t s = 0; s < topo.stages(); ++s) {
            std::span<double> stage = w.stage(s);
            const Fix16 *src = &at(s, 0, 0);
            for (size_t k = 0; k < stage.size(); ++k)
                stage[k] = src[k].toDouble();
        }
        model.setWeights(w);
    };
    push();

    const Fix16 lr = Fix16::fromDouble(hyper.learningRate);
    const Fix16 one = Fix16::fromDouble(1.0);

    std::vector<Fix16> x(static_cast<size_t>(topo.inputs()));
    std::vector<std::vector<Fix16>> act_fx(topo.stages());
    std::vector<std::vector<Fix16>> grad(topo.stages());
    for (size_t s = 0; s < topo.stages(); ++s) {
        act_fx[s].resize(static_cast<size_t>(topo.layers[s + 1]));
        grad[s].resize(static_cast<size_t>(topo.layers[s + 1]));
    }

    runTrainingEpochs(
        model, train_set, rng, hyper.epochs, [&](size_t n) {
            for (int i = 0; i < topo.inputs(); ++i)
                x[static_cast<size_t>(i)] = Fix16::fromDouble(
                    train_set.rows[n][static_cast<size_t>(i)]);
            Activations act = model.forward(train_set.rows[n]);
            for (size_t s = 0; s < topo.stages(); ++s)
                for (int j = 0; j < topo.layers[s + 1]; ++j)
                    act_fx[s][static_cast<size_t>(j)] =
                        Fix16::fromDouble(
                            act.layers[s][static_cast<size_t>(j)]);

            // Output gradients: (t - y) * y * (1 - y), all Q6.10.
            size_t last = topo.stages() - 1;
            for (int k = 0; k < topo.outputs(); ++k) {
                Fix16 y = act_fx[last][static_cast<size_t>(k)];
                Fix16 t = Fix16::fromDouble(
                    k == train_set.labels[n] ? 1.0 : 0.0);
                Fix16 err = Fix16::satAdd(
                    t, Fix16::fromDouble(-y.toDouble()));
                Fix16 deriv = Fix16::satMul(
                    y, Fix16::satAdd(one,
                                     Fix16::fromDouble(-y.toDouble())));
                grad[last][static_cast<size_t>(k)] =
                    Fix16::satMul(deriv, err);
            }
            // Hidden-stage gradients.
            for (size_t s = last; s-- > 0;) {
                int width = topo.layers[s + 1];
                int above = topo.layers[s + 2];
                for (int j = 0; j < width; ++j) {
                    Fix16 back;
                    for (int k = 0; k < above; ++k)
                        back = mac(back,
                                   grad[s + 1][static_cast<size_t>(k)],
                                   at(s + 1, k, j));
                    Fix16 h = act_fx[s][static_cast<size_t>(j)];
                    Fix16 deriv = Fix16::satMul(
                        h,
                        Fix16::satAdd(
                            one, Fix16::fromDouble(-h.toDouble())));
                    grad[s][static_cast<size_t>(j)] =
                        Fix16::satMul(deriv, back);
                }
            }
            // Updates: w += lr * grad * activation (no momentum in
            // the on-line datapath; Q6.10 momentum memory would
            // underflow immediately).
            for (size_t s = 0; s < topo.stages(); ++s) {
                int fanin = topo.layers[s];
                int width = topo.layers[s + 1];
                const std::vector<Fix16> &in_fx =
                    s == 0 ? x : act_fx[s - 1];
                for (int j = 0; j < width; ++j) {
                    Fix16 scaled = Fix16::satMul(
                        lr, grad[s][static_cast<size_t>(j)]);
                    for (int i = 0; i < fanin; ++i)
                        at(s, j, i) = mac(at(s, j, i), scaled,
                                          in_fx[static_cast<size_t>(i)]);
                    at(s, j, fanin) =
                        Fix16::satAdd(at(s, j, fanin), scaled);
                }
            }
            push();
        });
    return w;
}

} // namespace dtann
