#include "core/timemux.hh"

#include "circuit/lane_plane.hh"
#include "common/logging.hh"

namespace dtann {

TimeMuxedMlp::TimeMuxedMlp(Accelerator &a, MlpTopology logical_topo)
    : accel(a), logical(logical_topo)
{
    dtann_assert(logical.inputs >= 1 && logical.hidden >= 1 &&
                     logical.outputs >= 1,
                 "degenerate topology");
}

void
TimeMuxedMlp::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == logical, "weight topology mismatch");
    hidRows.assign(static_cast<size_t>(logical.hidden), {});
    for (int j = 0; j < logical.hidden; ++j) {
        auto &row = hidRows[static_cast<size_t>(j)];
        row.resize(static_cast<size_t>(logical.inputs + 1));
        for (int i = 0; i <= logical.inputs; ++i)
            row[static_cast<size_t>(i)] = Fix16::fromDouble(w.hid(j, i));
    }
    outRows.assign(static_cast<size_t>(logical.outputs), {});
    for (int k = 0; k < logical.outputs; ++k) {
        auto &row = outRows[static_cast<size_t>(k)];
        row.resize(static_cast<size_t>(logical.hidden + 1));
        for (int j = 0; j <= logical.hidden; ++j)
            row[static_cast<size_t>(j)] = Fix16::fromDouble(w.out(k, j));
    }
}

std::vector<Fix16>
muxRunLayer(Accelerator &accel,
            const std::vector<std::vector<Fix16>> &rows,
            std::span<const Fix16> input)
{
    const AcceleratorConfig &cfg = accel.config();
    int P = cfg.inputs;          // physical fan-in per pass
    int B = cfg.hidden;          // physical neurons per pass
    int fanin = static_cast<int>(input.size());
    int chunks = (fanin + P - 1) / P;

    std::vector<Fix16> result(rows.size());
    std::vector<Fix16> phys_in(static_cast<size_t>(P));
    std::vector<Fix16> phys_row(static_cast<size_t>(P + 1));

    for (size_t batch = 0; batch < rows.size();
         batch += static_cast<size_t>(B)) {
        size_t in_batch =
            std::min<size_t>(static_cast<size_t>(B),
                             rows.size() - batch);
        if (chunks == 1) {
            // Fits in one pass: whole row (weights + bias) loaded,
            // activation applied directly.
            for (size_t p = 0; p < in_batch; ++p) {
                const auto &row = rows[batch + p];
                std::fill(phys_row.begin(), phys_row.end(), Fix16());
                for (int i = 0; i < fanin; ++i)
                    phys_row[static_cast<size_t>(i)] =
                        row[static_cast<size_t>(i)];
                phys_row[static_cast<size_t>(P)] = row.back(); // bias
                accel.loadPhysicalHiddenRow(static_cast<int>(p),
                                            phys_row);
            }
            std::fill(phys_in.begin(), phys_in.end(), Fix16());
            for (int i = 0; i < fanin; ++i)
                phys_in[static_cast<size_t>(i)] =
                    input[static_cast<size_t>(i)];
            std::vector<Fix16> acts = accel.runHiddenLayer(phys_in);
            for (size_t p = 0; p < in_batch; ++p)
                result[batch + p] = acts[p];
            continue;
        }

        // Oversized fan-in: accumulate chunk sums in key logic.
        std::vector<Acc24> totals(in_batch);
        for (int c = 0; c < chunks; ++c) {
            int base = c * P;
            int width = std::min(P, fanin - base);
            bool last = c == chunks - 1;
            for (size_t p = 0; p < in_batch; ++p) {
                const auto &row = rows[batch + p];
                std::fill(phys_row.begin(), phys_row.end(), Fix16());
                for (int i = 0; i < width; ++i)
                    phys_row[static_cast<size_t>(i)] =
                        row[static_cast<size_t>(base + i)];
                if (last)
                    phys_row[static_cast<size_t>(P)] = row.back();
                accel.loadPhysicalHiddenRow(static_cast<int>(p),
                                            phys_row);
            }
            std::fill(phys_in.begin(), phys_in.end(), Fix16());
            for (int i = 0; i < width; ++i)
                phys_in[static_cast<size_t>(i)] =
                    input[static_cast<size_t>(base + i)];
            accel.runHiddenLayer(phys_in);
            for (size_t p = 0; p < in_batch; ++p)
                totals[p] =
                    Acc24::hwAdd(totals[p], accel.hiddenSums()[p]);
        }
        // Final activation pass: feed each neuron's saturated sum
        // back on its own input line with an exact weight of 1.0 so
        // the physical activation unit produces the neuron output.
        std::fill(phys_in.begin(), phys_in.end(), Fix16());
        for (size_t p = 0; p < in_batch; ++p) {
            std::fill(phys_row.begin(), phys_row.end(), Fix16());
            phys_row[p] = Fix16::fromDouble(1.0);
            accel.loadPhysicalHiddenRow(static_cast<int>(p), phys_row);
            phys_in[p] = totals[p].toFix16Sat();
        }
        std::vector<Fix16> acts = accel.runHiddenLayer(phys_in);
        for (size_t p = 0; p < in_batch; ++p)
            result[batch + p] = acts[p];
    }
    return result;
}

std::vector<std::vector<Fix16>>
muxRunLayerBatch(Accelerator &accel,
                 const std::vector<std::vector<Fix16>> &rows,
                 const std::vector<std::vector<Fix16>> &inputs)
{
    const AcceleratorConfig &cfg = accel.config();
    int P = cfg.inputs;          // physical fan-in per pass
    int B = cfg.hidden;          // physical neurons per pass
    size_t N = inputs.size();
    int fanin = N == 0 ? 0 : static_cast<int>(inputs[0].size());
    int chunks = (fanin + P - 1) / P;

    std::vector<std::vector<Fix16>> result(
        N, std::vector<Fix16>(rows.size()));
    size_t width = batchLaneWidth();
    std::vector<Fix16> phys_row(static_cast<size_t>(P + 1));
    std::vector<std::vector<Fix16>> phys_in(
        width, std::vector<Fix16>(static_cast<size_t>(P)));
    std::vector<std::vector<Fix16>> acts(
        width, std::vector<Fix16>(static_cast<size_t>(B)));

    for (size_t pos = 0; pos < N; pos += width) {
        size_t lanes = std::min(width, N - pos);
        std::vector<const Fix16 *> inPtr(lanes);
        std::vector<Fix16 *> actPtr(lanes);
        for (size_t l = 0; l < lanes; ++l) {
            inPtr[l] = phys_in[l].data();
            actPtr[l] = acts[l].data();
        }

        for (size_t batch = 0; batch < rows.size();
             batch += static_cast<size_t>(B)) {
            size_t in_batch =
                std::min<size_t>(static_cast<size_t>(B),
                                 rows.size() - batch);
            if (chunks == 1) {
                // Fits in one pass: whole rows (weights + bias)
                // loaded once, then all lanes activate directly.
                for (size_t p = 0; p < in_batch; ++p) {
                    const auto &row = rows[batch + p];
                    std::fill(phys_row.begin(), phys_row.end(),
                              Fix16());
                    for (int i = 0; i < fanin; ++i)
                        phys_row[static_cast<size_t>(i)] =
                            row[static_cast<size_t>(i)];
                    phys_row[static_cast<size_t>(P)] = row.back();
                    accel.loadPhysicalHiddenRow(static_cast<int>(p),
                                                phys_row);
                }
                for (size_t l = 0; l < lanes; ++l) {
                    auto &in = phys_in[l];
                    std::fill(in.begin(), in.end(), Fix16());
                    for (int i = 0; i < fanin; ++i)
                        in[static_cast<size_t>(i)] =
                            inputs[pos + l][static_cast<size_t>(i)];
                }
                accel.runHiddenLayerLanes(inPtr, actPtr, lanes);
                for (size_t l = 0; l < lanes; ++l)
                    for (size_t p = 0; p < in_batch; ++p)
                        result[pos + l][batch + p] = acts[l][p];
                continue;
            }

            // Oversized fan-in: accumulate per-lane chunk sums in
            // key logic.
            std::vector<Acc24> totals(lanes * in_batch);
            for (int c = 0; c < chunks; ++c) {
                int base = c * P;
                int width = std::min(P, fanin - base);
                bool last = c == chunks - 1;
                for (size_t p = 0; p < in_batch; ++p) {
                    const auto &row = rows[batch + p];
                    std::fill(phys_row.begin(), phys_row.end(),
                              Fix16());
                    for (int i = 0; i < width; ++i)
                        phys_row[static_cast<size_t>(i)] =
                            row[static_cast<size_t>(base + i)];
                    if (last)
                        phys_row[static_cast<size_t>(P)] = row.back();
                    accel.loadPhysicalHiddenRow(static_cast<int>(p),
                                                phys_row);
                }
                for (size_t l = 0; l < lanes; ++l) {
                    auto &in = phys_in[l];
                    std::fill(in.begin(), in.end(), Fix16());
                    for (int i = 0; i < width; ++i)
                        in[static_cast<size_t>(i)] =
                            inputs[pos + l]
                                  [static_cast<size_t>(base + i)];
                }
                accel.runHiddenLayerLanes(inPtr, actPtr, lanes);
                const std::vector<Acc24> &sums =
                    accel.hiddenSumsLanes();
                for (size_t l = 0; l < lanes; ++l)
                    for (size_t p = 0; p < in_batch; ++p)
                        totals[l * in_batch + p] = Acc24::hwAdd(
                            totals[l * in_batch + p],
                            sums[l * static_cast<size_t>(B) + p]);
            }
            // Final activation pass: feed each neuron's saturated
            // sum back on its own input line with an exact weight
            // of 1.0 so the physical activation unit produces the
            // neuron output — one identity load for all lanes.
            for (size_t p = 0; p < in_batch; ++p) {
                std::fill(phys_row.begin(), phys_row.end(), Fix16());
                phys_row[p] = Fix16::fromDouble(1.0);
                accel.loadPhysicalHiddenRow(static_cast<int>(p),
                                            phys_row);
            }
            for (size_t l = 0; l < lanes; ++l) {
                auto &in = phys_in[l];
                std::fill(in.begin(), in.end(), Fix16());
                for (size_t p = 0; p < in_batch; ++p)
                    in[p] = totals[l * in_batch + p].toFix16Sat();
            }
            accel.runHiddenLayerLanes(inPtr, actPtr, lanes);
            for (size_t l = 0; l < lanes; ++l)
                for (size_t p = 0; p < in_batch; ++p)
                    result[pos + l][batch + p] = acts[l][p];
        }
    }
    return result;
}

Activations
TimeMuxedMlp::forward(std::span<const double> input)
{
    dtann_assert(static_cast<int>(input.size()) == logical.inputs,
                 "logical input arity mismatch");
    dtann_assert(!hidRows.empty(), "setWeights() before forward()");

    std::vector<Fix16> fix_in(input.size());
    for (size_t i = 0; i < input.size(); ++i)
        fix_in[i] = Fix16::fromDouble(input[i]);

    std::vector<Fix16> hidden = muxRunLayer(accel, hidRows, fix_in);
    std::vector<Fix16> output = muxRunLayer(accel, outRows, hidden);

    Activations act;
    act.layers.resize(2);
    act.layers[0].reserve(hidden.size());
    for (Fix16 h : hidden)
        act.layers[0].push_back(h.toDouble());
    act.layers[1].reserve(output.size());
    for (Fix16 o : output)
        act.layers[1].push_back(o.toDouble());
    return act;
}

std::vector<Activations>
TimeMuxedMlp::forwardBatch(std::span<const std::vector<double>> inputs)
{
    dtann_assert(!hidRows.empty(), "setWeights() before forward()");
    if (!accel.batchPure())
        return rowLoopBatch(inputs); // stateful faulty units need
                                     // the exact per-row sequence
    size_t N = inputs.size();
    std::vector<std::vector<Fix16>> fix_in(N);
    for (size_t r = 0; r < N; ++r) {
        dtann_assert(static_cast<int>(inputs[r].size()) ==
                         logical.inputs,
                     "logical input arity mismatch");
        fix_in[r].resize(inputs[r].size());
        for (size_t i = 0; i < inputs[r].size(); ++i)
            fix_in[r][i] = Fix16::fromDouble(inputs[r][i]);
    }

    std::vector<std::vector<Fix16>> hidden =
        muxRunLayerBatch(accel, hidRows, fix_in);
    std::vector<std::vector<Fix16>> output =
        muxRunLayerBatch(accel, outRows, hidden);

    std::vector<Activations> acts(N);
    for (size_t r = 0; r < N; ++r) {
        Activations &act = acts[r];
        act.layers.resize(2);
        act.layers[0].reserve(hidden[r].size());
        for (Fix16 h : hidden[r])
            act.layers[0].push_back(h.toDouble());
        act.layers[1].reserve(output[r].size());
        for (Fix16 o : output[r])
            act.layers[1].push_back(o.toDouble());
    }
    return acts;
}

size_t
muxLayerPasses(const AcceleratorConfig &cfg, int neurons, int fanin)
{
    size_t batches = static_cast<size_t>(
        (neurons + cfg.hidden - 1) / cfg.hidden);
    size_t chunks = static_cast<size_t>(
        (fanin + cfg.inputs - 1) / cfg.inputs);
    size_t per_batch = chunks == 1 ? 1 : chunks + 1; // + activation pass
    return batches * per_batch;
}

size_t
TimeMuxedMlp::passesPerRow() const
{
    const AcceleratorConfig &cfg = accel.config();
    return muxLayerPasses(cfg, logical.hidden, logical.inputs) +
        muxLayerPasses(cfg, logical.outputs, logical.hidden);
}

size_t
TimeMuxedMlp::weightWordsPerRow() const
{
    // Every pass reloads a full physical weight row per busy
    // neuron.
    const AcceleratorConfig &cfg = accel.config();
    return passesPerRow() * static_cast<size_t>(cfg.hidden) *
        static_cast<size_t>(cfg.inputs + 1);
}

int
TimeMuxedMlp::muxFactor() const
{
    const AcceleratorConfig &cfg = accel.config();
    int total = logical.hidden + logical.outputs;
    int phys = cfg.hidden;
    return (total + phys - 1) / phys;
}

} // namespace dtann
