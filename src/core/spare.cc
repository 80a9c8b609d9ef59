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

SparedOutputMlp::SparedOutputMlp(Accelerator &a, MlpTopology logical_topo,
                                 int copy_count)
    : accel(a), logical(logical_topo),
      replicated(sparedTopology(logical_topo, copy_count)),
      copies(copy_count), dup(replicated)
{
    dtann_assert(accel.topology() == replicated,
                 "accelerator must be mapped with the replicated "
                 "topology (use sparedTopology())");
    dtann_assert(replicated.outputs <= accel.config().outputs,
                 "not enough physical output neurons for spares");
}

void
SparedOutputMlp::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == logical, "weight topology mismatch");
    std::ranges::copy(w.stage(0), dup.stage(0).begin());
    for (int k = 0; k < logical.outputs; ++k)
        for (int j = 0; j <= logical.hidden; ++j)
            for (int c = 0; c < copies; ++c)
                dup.out(k + c * logical.outputs, j) = w.out(k, j);
    accel.setWeights(dup);
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

namespace {

/** Merge the replicated physical outputs of one row into the
 *  logical outputs via the shared vote rule. */
Activations
combineCopies(const Activations &phys, MlpTopology logical, int copies)
{
    Activations act;
    act.layers.resize(2);
    act.hidden() = phys.hidden();
    act.output().resize(static_cast<size_t>(logical.outputs));
    std::vector<double> copy_vals(static_cast<size_t>(copies));
    for (int k = 0; k < logical.outputs; ++k) {
        for (int c = 0; c < copies; ++c)
            copy_vals[static_cast<size_t>(c)] =
                phys.output()[static_cast<size_t>(
                    k + c * logical.outputs)];
        act.output()[static_cast<size_t>(k)] =
            medianVote(copy_vals);
    }
    return act;
}

} // namespace

Activations
SparedOutputMlp::forward(std::span<const double> input)
{
    return combineCopies(accel.forward(input), logical, copies);
}

std::vector<Activations>
SparedOutputMlp::forwardBatch(std::span<const std::vector<double>> inputs)
{
    std::vector<Activations> phys = accel.forwardBatch(inputs);
    std::vector<Activations> acts;
    acts.reserve(phys.size());
    for (const Activations &p : phys)
        acts.push_back(combineCopies(p, logical, copies));
    return acts;
}

} // namespace dtann
