#include "ann/mlp.hh"

#include "ann/sigmoid.hh"
#include "common/logging.hh"

namespace dtann {

DeepTopology
toLayerTopology(MlpTopology t)
{
    return DeepTopology{{t.inputs, t.hidden, t.outputs}};
}

DeepWeights::DeepWeights(DeepTopology t) : topo(std::move(t))
{
    dtann_assert(topo.layers.size() >= 3,
                 "deep topology needs input, >=1 hidden, output");
    for (int width : topo.layers)
        dtann_assert(width >= 1, "degenerate layer");
    offsets.assign(topo.stages() + 1, 0);
    for (size_t s = 0; s < topo.stages(); ++s)
        offsets[s + 1] = offsets[s] +
            static_cast<size_t>(topo.layers[s + 1]) *
                static_cast<size_t>(topo.layers[s] + 1);
    values.assign(offsets.back(), 0.0);
}

void
DeepWeights::initRandom(Rng &rng, double range)
{
    for (double &w : values)
        w = rng.nextDouble(-range, range);
}

DeepTopology
ForwardModel::layerTopology() const
{
    return toLayerTopology(topology());
}

Activations
ForwardModel::forward(std::span<const double> input)
{
    std::vector<std::vector<double>> one(
        1, std::vector<double>(input.begin(), input.end()));
    std::vector<Activations> acts = forwardBatch(one);
    return std::move(acts.front());
}

std::vector<Activations>
ForwardModel::rowLoopBatch(std::span<const std::vector<double>> inputs)
{
    std::vector<Activations> out;
    out.reserve(inputs.size());
    for (const auto &row : inputs)
        out.push_back(forward(row));
    return out;
}

void
FloatMlp::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == topo, "weight topology mismatch");
    weights = w;
}

Activations
FloatMlp::forward(std::span<const double> input)
{
    dtann_assert(static_cast<int>(input.size()) == topo.inputs,
                 "input arity mismatch");
    Activations act(static_cast<size_t>(topo.hidden),
                    static_cast<size_t>(topo.outputs));
    for (int j = 0; j < topo.hidden; ++j) {
        double o = weights.hid(j, topo.inputs); // bias
        for (int i = 0; i < topo.inputs; ++i)
            o += weights.hid(j, i) * input[static_cast<size_t>(i)];
        act.hidden()[static_cast<size_t>(j)] = logistic(o);
    }
    for (int k = 0; k < topo.outputs; ++k) {
        double o = weights.out(k, topo.hidden); // bias
        for (int j = 0; j < topo.hidden; ++j)
            o += weights.out(k, j) * act.hidden()[static_cast<size_t>(j)];
        act.output()[static_cast<size_t>(k)] = logistic(o);
    }
    return act;
}

} // namespace dtann
