#include "mitigate/replicate.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/spare.hh"

namespace dtann {

std::vector<std::vector<int>>
planOutputReplication(const DefectMap &map, MlpTopology logical,
                      const AcceleratorConfig &cfg)
{
    std::vector<int> bad = map.suspectNeurons(Layer::Output);
    auto row_faulty = [&](int row) {
        return std::binary_search(bad.begin(), bad.end(), row);
    };

    std::vector<std::vector<int>> groups(
        static_cast<size_t>(logical.outputs));
    int next_spare = logical.outputs;
    for (int k = 0; k < logical.outputs; ++k) {
        groups[static_cast<size_t>(k)] = {k};
        if (!row_faulty(k))
            continue;
        // Recruit up to two clean spares: the original stays in the
        // vote, so a median-of-3 outvotes it when it misbehaves and
        // a pair averages when only one spare is left.
        for (int copies = 0; copies < 2; ++copies) {
            while (next_spare < cfg.outputs && row_faulty(next_spare))
                ++next_spare;
            if (next_spare >= cfg.outputs)
                break;
            groups[static_cast<size_t>(k)].push_back(next_spare++);
        }
    }
    return groups;
}

MlpTopology
ReplicatedOutputMlp::extendedTopology(MlpTopology logical,
                                      const AcceleratorConfig &cfg)
{
    return {logical.inputs, logical.hidden, cfg.outputs};
}

ReplicatedOutputMlp::ReplicatedOutputMlp(
    Accelerator &a, MlpTopology logical_topo,
    std::vector<std::vector<int>> row_groups)
    : accel(a), logical(logical_topo), groups(std::move(row_groups)),
      dup(extendedTopology(logical, accel.config()))
{
    dtann_assert(accel.topology() ==
                     extendedTopology(logical, accel.config()),
                 "accelerator must be mapped with the extended "
                 "topology (use extendedTopology())");
    dtann_assert(static_cast<int>(groups.size()) == logical.outputs,
                 "replication group arity mismatch");
    std::vector<int> all;
    for (size_t k = 0; k < groups.size(); ++k) {
        dtann_assert(!groups[k].empty() &&
                         groups[k].front() == static_cast<int>(k),
                     "group must start with its own row");
        for (int row : groups[k]) {
            dtann_assert(row >= 0 && row < accel.config().outputs,
                         "replication row out of physical range");
            all.push_back(row);
        }
    }
    std::sort(all.begin(), all.end());
    dtann_assert(std::adjacent_find(all.begin(), all.end()) ==
                     all.end(),
                 "replication groups share a physical row");
}

int
ReplicatedOutputMlp::spareRowsUsed() const
{
    int n = 0;
    for (const std::vector<int> &g : groups)
        n += static_cast<int>(g.size()) - 1;
    return n;
}

void
ReplicatedOutputMlp::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == logical, "weight topology mismatch");
    std::ranges::copy(w.stage(0), dup.stage(0).begin());
    for (int k = 0; k < logical.outputs; ++k)
        for (int j = 0; j <= logical.hidden; ++j)
            for (int row : groups[static_cast<size_t>(k)])
                dup.out(row, j) = w.out(k, j);
    accel.setWeights(dup);
}

void
ReplicatedOutputMlp::vote(const std::vector<double> &phys,
                          std::vector<double> &out) const
{
    out.resize(static_cast<size_t>(logical.outputs));
    std::vector<double> copy_vals;
    for (int k = 0; k < logical.outputs; ++k) {
        const std::vector<int> &g = groups[static_cast<size_t>(k)];
        copy_vals.clear();
        for (int row : g)
            copy_vals.push_back(phys[static_cast<size_t>(row)]);
        out[static_cast<size_t>(k)] = medianVote(copy_vals);
    }
}

Activations
ReplicatedOutputMlp::forward(std::span<const double> input)
{
    Activations phys = accel.forward(input);
    Activations act;
    act.layers.resize(2);
    act.hidden().assign(phys.hidden().begin(),
                        phys.hidden().begin() + logical.hidden);
    vote(phys.output(), act.output());
    return act;
}

std::vector<Activations>
ReplicatedOutputMlp::forwardBatch(
    std::span<const std::vector<double>> inputs)
{
    std::vector<Activations> phys = accel.forwardBatch(inputs);
    std::vector<Activations> acts(phys.size());
    for (size_t r = 0; r < phys.size(); ++r) {
        Activations &act = acts[r];
        act.layers.resize(2);
        act.hidden().assign(phys[r].hidden().begin(),
                            phys[r].hidden().begin() + logical.hidden);
        vote(phys[r].output(), act.output());
    }
    return acts;
}

} // namespace dtann
