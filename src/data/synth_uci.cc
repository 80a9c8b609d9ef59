#include "data/synth_uci.hh"

#include <algorithm>
#include <cmath>

#include "common/json.hh"

namespace dtann {

const std::vector<UciTaskSpec> &
uciTasks()
{
    // Dimensions, class counts, original sizes and best
    // hyper-parameters are the paper's Table II. The difficulty
    // knob is ours (see header).
    static const std::vector<UciTaskSpec> tasks = {
        {"breast", 30, 2, 569, 0.60, 0.1, 200, 14},
        {"glass", 9, 6, 214, 0.65, 0.1, 800, 10},
        {"ionosphere", 34, 2, 351, 0.60, 0.3, 100, 6},
        {"iris", 4, 3, 150, 0.30, 0.2, 100, 8},
        {"optdigits", 64, 10, 5620, 0.25, 0.1, 200, 14},
        {"robot", 90, 5, 463, 0.40, 0.2, 1600, 6},
        {"sonar", 60, 2, 208, 0.70, 0.1, 100, 10},
        {"spam", 57, 2, 4601, 0.70, 0.1, 800, 6},
        {"vehicle", 18, 4, 846, 0.68, 0.1, 400, 6},
        {"wine", 13, 3, 178, 0.50, 0.2, 1600, 4},
    };
    return tasks;
}

const UciTaskSpec &
uciTask(const std::string &name)
{
    std::string known;
    for (const UciTaskSpec &t : uciTasks()) {
        if (t.name == name)
            return t;
        known += (known.empty() ? "" : ", ") + t.name;
    }
    throw JsonError("unknown task '" + name + "' (expected one of: " +
                    known + ")");
}

Dataset
makeSyntheticTask(const UciTaskSpec &spec, Rng &rng, size_t rows)
{
    if (rows == 0)
        rows = static_cast<size_t>(spec.rows);

    size_t d = static_cast<size_t>(spec.attributes);
    // Only a subset of attributes is informative (as in real UCI
    // data); the rest is uniform noise.
    size_t informative = std::min<size_t>(d, 10);
    // Many-class tasks get unimodal classes so a 10-hidden-neuron
    // MLP can represent the decision surface.
    const int centersPerClass = spec.classes >= 5 ? 1 : 2;

    // Per-class cluster centers over the informative dimensions.
    // Sample several candidate center sets and keep the one with
    // the largest minimum inter-class distance, so the difficulty
    // knob scales noise against a known separation.
    using CenterSet = std::vector<std::vector<std::vector<double>>>;
    CenterSet centers;
    double best_sep = -1.0;
    for (int attempt = 0; attempt < 60; ++attempt) {
        CenterSet cand(static_cast<size_t>(spec.classes));
        for (auto &cls : cand) {
            cls.resize(centersPerClass);
            for (auto &c : cls) {
                c.resize(informative);
                for (double &v : c)
                    v = rng.nextDouble(0.15, 0.85);
            }
        }
        double min_sep = 1e9;
        for (size_t a = 0; a < cand.size(); ++a)
            for (size_t b = a + 1; b < cand.size(); ++b)
                for (const auto &ca : cand[a])
                    for (const auto &cb : cand[b]) {
                        double dist2 = 0.0;
                        for (size_t j = 0; j < informative; ++j)
                            dist2 += (ca[j] - cb[j]) * (ca[j] - cb[j]);
                        min_sep = std::min(min_sep, std::sqrt(dist2));
                    }
        if (min_sep > best_sep) {
            best_sep = min_sep;
            centers = std::move(cand);
        }
    }

    // Per-dimension noise scaled to the achieved separation: the
    // one-dimensional Bayes error between the two closest clusters
    // is roughly Phi(-1.25 / difficulty).
    double sigma = spec.difficulty * best_sep / 2.5;

    Dataset ds;
    ds.name = spec.name;
    ds.numAttributes = spec.attributes;
    ds.numClasses = spec.classes;
    ds.rows.reserve(rows);
    ds.labels.reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
        int label = static_cast<int>(
            i % static_cast<size_t>(spec.classes)); // balanced classes
        const auto &c =
            centers[static_cast<size_t>(label)]
                   [rng.nextUint(static_cast<uint64_t>(centersPerClass))];
        std::vector<double> row(d);
        for (size_t j = 0; j < d; ++j) {
            if (j < informative) {
                row[j] = std::clamp(rng.nextGauss(c[j], sigma), 0.0, 1.0);
            } else {
                row[j] = rng.nextDouble();
            }
        }
        ds.rows.push_back(std::move(row));
        ds.labels.push_back(label);
    }
    shuffleDataset(ds, rng);
    ds.validate();
    return ds;
}

} // namespace dtann
