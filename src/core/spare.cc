#include "core/spare.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dtann {

MlpTopology
sparedTopology(MlpTopology logical, int copies)
{
    dtann_assert(copies >= 2 && copies <= 4, "2 to 4 copies supported");
    return {logical.inputs, logical.hidden, copies * logical.outputs};
}

std::vector<std::vector<int>>
spareGroups(MlpTopology logical, int copies)
{
    std::vector<std::vector<int>> groups(
        static_cast<size_t>(logical.outputs));
    for (int k = 0; k < logical.outputs; ++k)
        for (int c = 0; c < copies; ++c)
            groups[static_cast<size_t>(k)].push_back(
                k + c * logical.outputs);
    return groups;
}

double
medianVote(std::vector<double> &copy_vals)
{
    size_t n = copy_vals.size();
    dtann_assert(n >= 1, "vote needs at least one copy");
    std::sort(copy_vals.begin(), copy_vals.end());
    if (n % 2 == 1) {
        // Odd copy count: exact median rejects any single outlier
        // copy.
        return copy_vals[n / 2];
    }
    // Even: mean of the middle pair (average for 2 copies).
    return 0.5 * (copy_vals[n / 2 - 1] + copy_vals[n / 2]);
}

OutputGroupMlp::OutputGroupMlp(HardwareBackend &a, MlpTopology logical_topo,
                               std::vector<std::vector<int>> row_groups)
    : accel(a), logical(logical_topo), groups(std::move(row_groups)),
      phys(accel.topology())
{
    MlpTopology mapped = accel.topology();
    dtann_assert(mapped.inputs == logical.inputs &&
                     mapped.hidden == logical.hidden,
                 "array inputs/hidden must match the logical network");
    dtann_assert(static_cast<int>(groups.size()) == logical.outputs,
                 "output group arity mismatch");
    std::vector<int> all;
    for (const std::vector<int> &g : groups) {
        dtann_assert(!g.empty(), "empty output group");
        for (int row : g) {
            dtann_assert(row >= 0 && row < mapped.outputs,
                         "output group row out of physical range");
            all.push_back(row);
        }
    }
    std::sort(all.begin(), all.end());
    dtann_assert(std::adjacent_find(all.begin(), all.end()) ==
                     all.end(),
                 "output groups share a physical row");
}

int
OutputGroupMlp::spareRowsUsed() const
{
    int n = 0;
    for (const std::vector<int> &g : groups)
        for (int row : g)
            n += row >= logical.outputs;
    return n;
}

void
OutputGroupMlp::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == logical, "weight topology mismatch");
    std::ranges::copy(w.stage(0), phys.stage(0).begin());
    for (int k = 0; k < logical.outputs; ++k)
        for (int j = 0; j <= logical.hidden; ++j)
            for (int row : groups[static_cast<size_t>(k)])
                phys.out(row, j) = w.out(k, j);
    accel.setWeights(phys);
}

void
OutputGroupMlp::vote(const Activations &phys_act, Activations &act) const
{
    std::copy_n(phys_act.hidden().begin(), logical.hidden,
                act.hidden().begin());
    std::vector<double> copy_vals;
    for (size_t k = 0; k < groups.size(); ++k) {
        copy_vals.clear();
        for (int row : groups[k])
            copy_vals.push_back(phys_act.output()[static_cast<size_t>(row)]);
        act.output()[k] = medianVote(copy_vals);
    }
}

Activations
OutputGroupMlp::forward(std::span<const double> input)
{
    Activations act(static_cast<size_t>(logical.hidden),
                    static_cast<size_t>(logical.outputs));
    vote(accel.forward(input), act);
    return act;
}

std::vector<Activations>
OutputGroupMlp::forwardBatch(std::span<const std::vector<double>> inputs)
{
    std::vector<Activations> phys_acts = accel.forwardBatch(inputs);
    std::vector<Activations> acts;
    acts.reserve(phys_acts.size());
    for (const Activations &p : phys_acts)
        vote(p, acts.emplace_back(static_cast<size_t>(logical.hidden),
                                  static_cast<size_t>(logical.outputs)));
    return acts;
}

} // namespace dtann
