#include "ann/deep.hh"

#include "ann/sigmoid.hh"
#include "common/logging.hh"

namespace dtann {

MlpTopology
FloatDeepMlp::topology() const
{
    return {topo.inputs(), topo.layers[topo.layers.size() - 2],
            topo.outputs()};
}

void
FloatDeepMlp::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == topo, "weight topology mismatch");
    weights = w;
}

Activations
FloatDeepMlp::forward(std::span<const double> input)
{
    dtann_assert(static_cast<int>(input.size()) == topo.inputs(),
                 "input arity mismatch");
    Activations act;
    std::vector<double> current(input.begin(), input.end());
    for (size_t s = 0; s < topo.stages(); ++s) {
        int fanin = topo.layers[s];
        int width = topo.layers[s + 1];
        std::vector<double> next(static_cast<size_t>(width));
        for (int j = 0; j < width; ++j) {
            double o = weights.at(s, j, fanin); // bias
            for (int i = 0; i < fanin; ++i)
                o += weights.at(s, j, i) * current[static_cast<size_t>(i)];
            next[static_cast<size_t>(j)] = logistic(o);
        }
        act.layers.push_back(next);
        current = std::move(next);
    }
    return act;
}

} // namespace dtann
