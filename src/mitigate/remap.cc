#include "mitigate/remap.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dtann {

std::vector<int>
planOutputRemap(const DefectMap &map, MlpTopology logical,
                const AcceleratorConfig &cfg)
{
    std::vector<int> bad = map.suspectNeurons(Layer::Output);
    auto row_faulty = [&](int row) {
        return std::binary_search(bad.begin(), bad.end(), row);
    };

    std::vector<int> assignment(static_cast<size_t>(logical.outputs));
    int next_spare = logical.outputs;
    for (int k = 0; k < logical.outputs; ++k) {
        assignment[static_cast<size_t>(k)] = k;
        if (!row_faulty(k))
            continue;
        // Find the next clean spare row.
        while (next_spare < cfg.outputs && row_faulty(next_spare))
            ++next_spare;
        if (next_spare < cfg.outputs)
            assignment[static_cast<size_t>(k)] = next_spare++;
        // else: out of spares, keep the faulty row.
    }
    return assignment;
}

MlpTopology
RemappedOutputMlp::extendedTopology(MlpTopology logical,
                                    const AcceleratorConfig &cfg)
{
    return {logical.inputs, logical.hidden, cfg.outputs};
}

RemappedOutputMlp::RemappedOutputMlp(Accelerator &a,
                                     MlpTopology logical_topo,
                                     std::vector<int> row_map)
    : accel(a), logical(logical_topo), map(std::move(row_map)),
      steered(extendedTopology(logical, accel.config()))
{
    dtann_assert(accel.topology() ==
                     extendedTopology(logical, accel.config()),
                 "accelerator must be mapped with the extended "
                 "topology (use extendedTopology())");
    dtann_assert(static_cast<int>(map.size()) == logical.outputs,
                 "row map arity mismatch");
    std::vector<int> sorted = map;
    std::sort(sorted.begin(), sorted.end());
    dtann_assert(std::adjacent_find(sorted.begin(), sorted.end()) ==
                     sorted.end(),
                 "row map assigns one physical row twice");
    for (int row : map)
        dtann_assert(row >= 0 && row < accel.config().outputs,
                     "row map out of physical range");
}

int
RemappedOutputMlp::remappedCount() const
{
    int n = 0;
    for (size_t k = 0; k < map.size(); ++k)
        n += map[k] != static_cast<int>(k);
    return n;
}

void
RemappedOutputMlp::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == logical, "weight topology mismatch");
    std::ranges::copy(w.stage(0), steered.stage(0).begin());
    for (int k = 0; k < logical.outputs; ++k)
        for (int j = 0; j <= logical.hidden; ++j)
            steered.out(map[static_cast<size_t>(k)], j) = w.out(k, j);
    accel.setWeights(steered);
}

Activations
RemappedOutputMlp::forward(std::span<const double> input)
{
    Activations phys = accel.forward(input);
    Activations act;
    act.layers.resize(2);
    act.hidden().assign(phys.hidden().begin(),
                        phys.hidden().begin() + logical.hidden);
    act.output().resize(static_cast<size_t>(logical.outputs));
    for (int k = 0; k < logical.outputs; ++k)
        act.output()[static_cast<size_t>(k)] = phys.output()[
            static_cast<size_t>(map[static_cast<size_t>(k)])];
    return act;
}

std::vector<Activations>
RemappedOutputMlp::forwardBatch(std::span<const std::vector<double>> inputs)
{
    std::vector<Activations> phys = accel.forwardBatch(inputs);
    std::vector<Activations> acts(phys.size());
    for (size_t r = 0; r < phys.size(); ++r) {
        Activations &act = acts[r];
        act.layers.resize(2);
        act.hidden().assign(phys[r].hidden().begin(),
                            phys[r].hidden().begin() + logical.hidden);
        act.output().resize(static_cast<size_t>(logical.outputs));
        for (int k = 0; k < logical.outputs; ++k)
            act.output()[static_cast<size_t>(k)] = phys[r].output()[
                static_cast<size_t>(map[static_cast<size_t>(k)])];
    }
    return acts;
}

} // namespace dtann
