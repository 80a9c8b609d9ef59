#include "core/deep_mux.hh"

#include "common/logging.hh"

namespace dtann {

DeepMuxedNetwork::DeepMuxedNetwork(Accelerator &a, DeepTopology t)
    : accel(a), topo(std::move(t))
{
    dtann_assert(topo.layers.size() >= 3,
                 "deep topology needs input, >=1 hidden, output");
}

MlpTopology
DeepMuxedNetwork::topology() const
{
    return {topo.inputs(), topo.layers[topo.layers.size() - 2],
            topo.outputs()};
}

void
DeepMuxedNetwork::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == topo, "weight topology mismatch");
    stageRows.assign(topo.stages(), {});
    for (size_t s = 0; s < topo.stages(); ++s) {
        int fanin = topo.layers[s];
        int width = topo.layers[s + 1];
        auto &rows = stageRows[s];
        rows.assign(static_cast<size_t>(width), {});
        for (int j = 0; j < width; ++j) {
            auto &row = rows[static_cast<size_t>(j)];
            row.resize(static_cast<size_t>(fanin + 1));
            for (int i = 0; i <= fanin; ++i)
                row[static_cast<size_t>(i)] =
                    Fix16::fromDouble(w.at(s, j, i));
        }
    }
}

Activations
DeepMuxedNetwork::forward(std::span<const double> input)
{
    dtann_assert(static_cast<int>(input.size()) == topo.inputs(),
                 "input arity mismatch");
    dtann_assert(!stageRows.empty(), "setWeights() before forward()");

    std::vector<Fix16> current(input.size());
    for (size_t i = 0; i < input.size(); ++i)
        current[i] = Fix16::fromDouble(input[i]);

    Activations act;
    for (size_t s = 0; s < topo.stages(); ++s) {
        std::vector<Fix16> next =
            muxRunLayer(accel, stageRows[s], current);
        std::vector<double> as_double(next.size());
        for (size_t j = 0; j < next.size(); ++j)
            as_double[j] = next[j].toDouble();
        act.layers.push_back(std::move(as_double));
        current = std::move(next);
    }
    return act;
}

std::vector<Activations>
DeepMuxedNetwork::forwardBatch(std::span<const std::vector<double>> inputs)
{
    dtann_assert(!stageRows.empty(), "setWeights() before forward()");
    if (!accel.batchPure())
        return rowLoopBatch(inputs); // stateful faulty units need
                                     // the exact per-row sequence
    size_t N = inputs.size();
    std::vector<std::vector<Fix16>> current(N);
    for (size_t r = 0; r < N; ++r) {
        dtann_assert(static_cast<int>(inputs[r].size()) ==
                         topo.inputs(),
                     "input arity mismatch");
        current[r].resize(inputs[r].size());
        for (size_t i = 0; i < inputs[r].size(); ++i)
            current[r][i] = Fix16::fromDouble(inputs[r][i]);
    }

    std::vector<Activations> acts(N);
    for (size_t s = 0; s < topo.stages(); ++s) {
        std::vector<std::vector<Fix16>> next =
            muxRunLayerBatch(accel, stageRows[s], current);
        for (size_t r = 0; r < N; ++r) {
            std::vector<double> as_double(next[r].size());
            for (size_t j = 0; j < next[r].size(); ++j)
                as_double[j] = next[r][j].toDouble();
            acts[r].layers.push_back(std::move(as_double));
        }
        current = std::move(next);
    }
    return acts;
}

size_t
DeepMuxedNetwork::passesPerRow() const
{
    size_t passes = 0;
    for (size_t s = 0; s < topo.stages(); ++s)
        passes += muxLayerPasses(accel.config(), topo.layers[s + 1],
                                 topo.layers[s]);
    return passes;
}

} // namespace dtann
