#include "core/campaign.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>

#include "ann/crossval.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "rtl/adder.hh"
#include "rtl/clean_model.hh"
#include "rtl/multiplier.hh"
#include "rtl/operator_sim.hh"

namespace dtann {

namespace {

/**
 * Roots of the counter-based RNG streams (Rng::substream paths).
 * Every stream a campaign uses is substream(seed, {root, ...cell
 * coordinates...}), so streams never depend on scheduling order.
 */
enum StreamRoot : uint64_t {
    kStreamData = 1,  ///< {kStreamData, task}: dataset generation
    kStreamTrain = 2, ///< {kStreamTrain, task}: baseline training
    kStreamCell = 3,  ///< {kStreamCell, task, variant, rep}: one cell
};

/**
 * Journal payload of one Fig 5 cell: its none/gate/trans output
 * histograms and its work. The histograms are dense over the
 * operators' output bus (at most 8 bits; 256 input pairs bound
 * every count): a sweep holds every cell's payload until its fold,
 * and a dense table is a fraction of an IntHistogram tree's size.
 */
struct Fig5Cell
{
    static constexpr const char *kHists[3] = {"none", "gate", "trans"};
    std::array<std::array<uint16_t, 256>, 3> hist{};
    SimCounters sim;

    std::string toJson() const
    {
        std::string out = "{";
        for (size_t k = 0; k < 3; ++k) {
            IntHistogram h;
            for (size_t v = 0; v < 256; ++v)
                if (hist[k][v] != 0)
                    h.add(static_cast<int64_t>(v), hist[k][v]);
            out += "\"" + std::string(kHists[k]) + "\":" + h.toJson() + ",";
        }
        return out + "\"sim\":" + sim.toJson() + "}";
    }

    static Fig5Cell fromJson(const JsonValue &v)
    {
        Fig5Cell c;
        for (size_t k = 0; k < 3; ++k)
            for (const auto &[value, count] :
                 IntHistogram::fromJson(v.at(kHists[k])).items()) {
                if (value < 0 || value >= 256 || count > UINT16_MAX)
                    throw JsonError("fig5 histogram entry out of range");
                c.hist[k][static_cast<size_t>(value)] =
                    static_cast<uint16_t>(count);
            }
        c.sim = SimCounters::fromJson(v.at("sim"));
        return c;
    }
};

/** Journal payload of one Fig 10 cell. */
struct Fig10Cell
{
    double accuracy = 0.0;
    SimCounters sim;

    std::string toJson() const
    {
        return "{\"accuracy\":" + jsonNumber(accuracy) +
            ",\"sim\":" + sim.toJson() + "}";
    }

    static Fig10Cell fromJson(const JsonValue &v)
    {
        return {v.at("accuracy").asNumber(),
                SimCounters::fromJson(v.at("sim"))};
    }
};

/** Journal payload of one Fig 11 cell (the task comes from its key). */
struct Fig11Cell
{
    double amplitude = 0.0;
    double accuracy = 0.0;
    std::string site;
    SimCounters sim;

    std::string toJson() const
    {
        return "{\"amplitude\":" + jsonNumber(amplitude) +
            ",\"accuracy\":" + jsonNumber(accuracy) +
            ",\"site\":" + jsonString(site) + ",\"sim\":" +
            sim.toJson() + "}";
    }

    static Fig11Cell fromJson(const JsonValue &v)
    {
        return {v.at("amplitude").asNumber(),
                v.at("accuracy").asNumber(), v.at("site").asString(),
                SimCounters::fromJson(v.at("sim"))};
    }
};

} // namespace

// ---------------------------------------------------------------
// Config JSON (symmetric with the scenario-spec parser)

const char *
fig5OperatorName(Fig5Operator op)
{
    return op == Fig5Operator::Adder4 ? "adder4" : "multiplier4";
}

bool
fig5OperatorFromName(const std::string &name, Fig5Operator &out)
{
    if (name == "adder4") {
        out = Fig5Operator::Adder4;
        return true;
    }
    if (name == "multiplier4") {
        out = Fig5Operator::Multiplier4;
        return true;
    }
    return false;
}

std::string
Fig10Config::toJson() const
{
    std::string out = "{" + jsonCampaignFields();
    out += ",\"defect_counts\":[";
    for (size_t i = 0; i < defectCounts.size(); ++i) {
        if (i > 0)
            out += ",";
        out += std::to_string(defectCounts[i]);
    }
    out += "],\"retrain\":";
    out += retrain ? "true" : "false";
    out += "}";
    return out;
}

Fig10Config
Fig10Config::fromJson(const JsonValue &v)
{
    Fig10Config c;
    c.readCampaignFields(v);
    c.defectCounts = jsonGetIntArray(v, "defect_counts", c.defectCounts);
    c.retrain = jsonGetBool(v, "retrain", c.retrain);
    return c;
}

std::string
Fig11Config::toJson() const
{
    return "{" + jsonCampaignFields() + "}";
}

Fig11Config
Fig11Config::fromJson(const JsonValue &v)
{
    Fig11Config c;
    c.readCampaignFields(v);
    return c;
}

std::string
campaignEnvelope(const std::string &kind, const std::string &configJson,
                 uint64_t seed, const SimCounters &sim,
                 const std::string &resultsJson)
{
    std::string out = "{\"kind\":" + jsonString(kind);
    out += ",\"config\":" + configJson;
    out += ",\"seed\":" + std::to_string(seed);
    out += ",\"sim\":" + sim.toJson();
    out += ",\"results\":" + resultsJson;
    out += "}";
    return out;
}

// ---------------------------------------------------------------
// Fig 5

std::vector<CampaignCell>
fig5Cells(const std::vector<Fig5Config> &variants)
{
    std::vector<CampaignCell> cells;
    for (size_t v = 0; v < variants.size(); ++v) {
        const Fig5Config &c = variants[v];
        for (int rep = 0; rep < c.repetitions; ++rep)
            cells.push_back({{"fig5", fig5OperatorName(c.op),
                              "d" + std::to_string(c.defects),
                              static_cast<uint64_t>(rep)},
                             v, 0, 0, c.defects});
    }
    return cells;
}

std::vector<Fig5Result>
runFig5(const std::vector<Fig5Config> &variants)
{
    if (variants.empty())
        return {};
    const Fig5Config &run = variants.front();

    // Per-variant read-only state: the operator netlist and its
    // clean reference model.
    std::vector<std::shared_ptr<const Netlist>> netlists;
    std::vector<CleanFn> cleanFns;
    for (const Fig5Config &v : variants) {
        auto build_netlist = [&] {
            return v.op == Fig5Operator::Adder4
                ? buildRippleAdder(4, v.style, true)
                : buildMultiplierUnsigned(4, v.style);
        };
        netlists.push_back(
            run.contextCache != nullptr
                ? run.contextCache->netlist(
                      std::string("netlist/") + fig5OperatorName(v.op) +
                          "/" + faStyleName(v.style),
                      build_netlist)
                : std::make_shared<const Netlist>(build_netlist()));
        dtann_assert(netlists.back()->outputs().size() <= 8,
                     "Fig 5 cell histograms cover 8 output bits");
        cleanFns.push_back(v.op == Fig5Operator::Adder4
                               ? cleanAdder(4, true)
                               : cleanMultiplierUnsigned(4));
    }

    // One independent injection per repetition; each evaluates all
    // 256 input pairs in random order to avoid special behaviour
    // from defect-induced memory (paper Section III-A). The pairs
    // reach each faulty operator through applyLanes(): state-free
    // fault sets run 64 pairs per bit-parallel sweep, stateful ones
    // fall back to the scalar path in the same order, so histograms
    // are bit-identical either way.
    std::vector<CampaignCell> cells = fig5Cells(variants);
    CampaignEngine engine(run);
    auto out = engine.runCells<Fig5Cell>(
        run, cells,
        [&](const CampaignCell &c) {
            const Fig5Config &v = variants[c.task];
            const std::shared_ptr<const Netlist> &nl = netlists[c.task];
            Rng rng = Rng::substream(v.seed, {kStreamCell, c.key.rep});
            Injection trans_inj =
                injectTransistorDefects(*nl, v.defects, rng);
            Injection gate_inj =
                injectGateLevelFaults(*nl, v.defects, rng);
            OperatorSim trans_sim(nl, std::move(trans_inj),
                                  cleanFns[c.task]);
            OperatorSim gate_sim(nl, std::move(gate_inj),
                                 cleanFns[c.task]);

            std::vector<uint64_t> pairs(256);
            for (uint64_t i = 0; i < 256; ++i)
                pairs[i] = i;
            rng.shuffle(pairs);

            std::vector<uint64_t> trans_out(256), gate_out(256);
            trans_sim.applyLanes(pairs.data(), trans_out.data(), 256);
            gate_sim.applyLanes(pairs.data(), gate_out.data(), 256);

            uint64_t mask = (1ull << nl->outputs().size()) - 1;
            Fig5Cell h;
            for (size_t i = 0; i < 256; ++i) {
                uint64_t in = pairs[i];
                uint64_t a = in & 0xf, b = in >> 4;
                ++h.hist[0][v.op == Fig5Operator::Adder4 ? a + b : a * b];
                ++h.hist[1][gate_out[i] & mask];
                ++h.hist[2][trans_out[i] & mask];
            }
            h.sim.merge(trans_sim.counters());
            h.sim.merge(gate_sim.counters());
            return h;
        },
        [&](const CampaignCell &c, const Fig5Cell &) {
            return CellReport{c.key.task, variants[c.task].defects,
                              static_cast<int>(c.key.rep), 0.0};
        });

    std::vector<Fig5Result> results;
    for (const Fig5Config &v : variants)
        results.push_back({v.op, v.defects, v.repetitions, v.style,
                           v.seed, {}, {}, {}, {}});
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!out[i])
            continue;
        Fig5Result &r = results[cells[i].task];
        IntHistogram *hist[3] = {&r.none, &r.gate, &r.trans};
        for (size_t k = 0; k < 3; ++k)
            for (size_t v = 0; v < 256; ++v)
                if (out[i]->hist[k][v] != 0)
                    hist[k]->add(static_cast<int64_t>(v),
                                 out[i]->hist[k][v]);
        r.sim.merge(out[i]->sim);
    }
    for (const Fig5Result &r : results)
        logSimCounters("fig5", r.sim);
    return results;
}

// ---------------------------------------------------------------
// Shared helpers

Hyper
hardwareHyper(const UciTaskSpec &spec, const AcceleratorConfig &a,
              double epoch_scale)
{
    Hyper h;
    // The physical array caps the hidden-layer size (the paper's
    // hardware uses 10 hidden neurons even when the software
    // optimum is larger).
    h.hidden = std::min(spec.hidden, a.hidden);
    h.epochs = std::max(
        1, static_cast<int>(spec.epochs * epoch_scale + 0.5));
    h.learningRate = spec.learningRate;
    h.momentum = 0.1;
    return h;
}

std::vector<UciTaskSpec>
selectTasks(const std::vector<std::string> &names)
{
    if (names.empty())
        return uciTasks();
    std::vector<UciTaskSpec> out;
    for (const auto &n : names)
        out.push_back(uciTask(n));
    return out;
}

std::vector<CampaignCell>
defectSweepCells(const std::string &kind, const CampaignConfig &config,
                 const std::vector<int> &defectCounts,
                 const std::vector<std::string> &suffixes)
{
    std::vector<UciTaskSpec> specs = selectTasks(config.tasks);
    std::vector<CampaignCell> cells;
    for (size_t t = 0; t < specs.size(); ++t)
        for (size_t d = 0; d < defectCounts.size(); ++d) {
            // The defect-free point is a single evaluation (no
            // injection randomness).
            int reps = defectCounts[d] == 0 ? 1 : config.repetitions;
            for (size_t s = 0; s < suffixes.size(); ++s) {
                std::string variant = "v" + std::to_string(d) + ":d" +
                    std::to_string(defectCounts[d]) + suffixes[s];
                for (int rep = 0; rep < reps; ++rep)
                    cells.push_back({{kind, specs[t].name, variant,
                                      static_cast<uint64_t>(rep)},
                                     t, d, s, defectCounts[d]});
            }
        }
    return cells;
}

Hyper
retrainHyper(const Hyper &hyper, double retrain_scale)
{
    Hyper h = hyper;
    h.epochs =
        std::max(1, static_cast<int>(hyper.epochs * retrain_scale + 0.5));
    return h;
}

bool
maybeWriteJson(const std::string &name, const std::string &json)
{
    std::string dir = jsonOutDir();
    if (dir.empty())
        return false;
    std::string path = dir + "/" + name + ".json";
    std::ofstream out(path);
    if (!out) {
        warn("cannot write JSON results to '%s'", path.c_str());
        return false;
    }
    out << json << "\n";
    return true;
}

namespace {

TaskContext
prepareTask(const CampaignConfig &config, const UciTaskSpec &spec,
            size_t task_index)
{
    TaskContext t;
    t.spec = spec;
    Rng data_rng =
        Rng::substream(config.seed, {kStreamData, task_index});
    t.ds = makeSyntheticTask(spec, data_rng, config.rows);
    t.hyper = hardwareHyper(spec, config.array, config.epochScale);
    t.logical = {spec.attributes, t.hyper.hidden, spec.classes};

    // Baseline: train the clean backend once; its weights
    // warm-start every retraining cell of this task.
    auto accel = makeBackend(config.backend, config.array, t.logical);
    Rng train_rng =
        Rng::substream(config.seed, {kStreamTrain, task_index});
    t.baseline = Trainer(t.hyper).train(*accel, t.ds, train_rng);
    return t;
}

} // namespace

std::string
taskContextKey(const CampaignConfig &config, const UciTaskSpec &spec,
               size_t index)
{
    // Everything prepareTask() reads, canonically encoded; two
    // configs with equal keys build bit-identical contexts.
    return "task/" + spec.name + "/" + std::to_string(index) +
        "/seed=" + std::to_string(config.seed) +
        ";rows=" + std::to_string(config.rows) +
        ";epoch_scale=" + jsonNumber(config.epochScale) +
        ";array=" + config.array.toJson() +
        ";backend=" + backendName(config.backend);
}

std::vector<std::shared_ptr<const TaskContext>>
prepareCampaignTasks(CampaignEngine &engine,
                     const CampaignConfig &config)
{
    std::vector<UciTaskSpec> specs = selectTasks(config.tasks);
    std::vector<std::shared_ptr<const TaskContext>> ctx(specs.size());
    engine.parallelFor(specs.size(), [&](size_t t) {
        if (config.contextCache != nullptr) {
            ctx[t] = config.contextCache->task(
                taskContextKey(config, specs[t], t),
                [&] { return prepareTask(config, specs[t], t); });
        } else {
            ctx[t] = std::make_shared<const TaskContext>(
                prepareTask(config, specs[t], t));
        }
    });
    return ctx;
}

// ---------------------------------------------------------------
// Fig 10

std::vector<CampaignCell>
fig10Cells(const Fig10Config &config)
{
    return defectSweepCells("fig10", config, config.defectCounts, {""});
}

std::vector<Fig10Curve>
runFig10(const Fig10Config &config)
{
    std::vector<CampaignCell> cells = fig10Cells(config);
    CampaignEngine engine(config);
    auto ctx = prepareCampaignTasks(engine, config);

    auto out = engine.runCells<Fig10Cell>(
        config, cells,
        [&](const CampaignCell &c) {
            const TaskContext &t = *ctx[c.task];
            int defects = config.defectCounts[c.variant];
            // The cell's whole randomness budget comes from one
            // counter-derived stream: injection first, then fold
            // shuffling and retraining.
            Rng rng = Rng::substream(
                config.seed, {kStreamCell, c.task, c.variant, c.key.rep});

            auto accel = makeBackend(config.backend, config.array,
                                     t.logical);
            if (defects > 0) {
                DefectInjector injector(*accel,
                                        SitePool::inputAndHidden(),
                                        config.weighting);
                injector.inject(defects, rng);
            }

            double acc;
            if (config.retrain) {
                Trainer retrainer(
                    retrainHyper(t.hyper, config.retrainScale));
                acc = crossValidate(*accel, t.ds, config.folds,
                                    retrainer, rng, &t.baseline)
                          .meanAccuracy;
            } else {
                // Ablation: no retraining, test the baseline weights
                // through the faulty hardware.
                accel->setWeights(t.baseline);
                acc = evalAccuracy(*accel, t.ds);
            }
            return Fig10Cell{acc, accel->simCounters()};
        },
        [&](const CampaignCell &c, const Fig10Cell &p) {
            return CellReport{c.key.task,
                              config.defectCounts[c.variant],
                              static_cast<int>(c.key.rep), p.accuracy};
        });

    // Deterministic accumulation: cells are folded into the curves
    // in cell-index order, never in completion order.
    size_t n_var = config.defectCounts.size();
    std::vector<Fig10Curve> curves(ctx.size());
    std::vector<RunningStat> stats(ctx.size() * n_var);
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!out[i])
            continue;
        stats[cells[i].task * n_var + cells[i].variant].add(
            out[i]->accuracy);
        curves[cells[i].task].sim.merge(out[i]->sim);
    }
    SimCounters total;
    for (size_t t = 0; t < ctx.size(); ++t) {
        curves[t].task = ctx[t]->spec.name;
        for (size_t d = 0; d < n_var; ++d) {
            const RunningStat &s = stats[t * n_var + d];
            curves[t].points.push_back(
                {config.defectCounts[d], s.mean(), s.stddev()});
        }
        total.merge(curves[t].sim);
    }
    logSimCounters("fig10", total);
    return curves;
}

// ---------------------------------------------------------------
// Fig 11

std::vector<CampaignCell>
fig11Cells(const Fig11Config &config)
{
    std::vector<UciTaskSpec> specs = selectTasks(config.tasks);
    std::vector<CampaignCell> cells;
    for (size_t t = 0; t < specs.size(); ++t)
        for (int rep = 0; rep < config.repetitions; ++rep)
            cells.push_back({{"fig11", specs[t].name, "v0",
                              static_cast<uint64_t>(rep)},
                             t});
    return cells;
}

std::vector<Fig11Curve>
runFig11(const Fig11Config &config)
{
    std::vector<CampaignCell> cells = fig11Cells(config);
    CampaignEngine engine(config);
    auto ctx = prepareCampaignTasks(engine, config);

    auto out = engine.runCells<Fig11Cell>(
        config, cells,
        [&](const CampaignCell &c) {
            const TaskContext &t = *ctx[c.task];
            Rng rng = Rng::substream(config.seed,
                                     {kStreamCell, c.task, 0, c.key.rep});

            auto accel = makeBackend(config.backend, config.array,
                                     t.logical);
            DefectInjector injector(*accel, SitePool::outputCritical(),
                                    config.weighting);
            auto records = injector.inject(1, rng);
            UnitSite site = accel->faultySites().front();

            // Retrain with the faulty output stage, then measure
            // accuracy and the error amplitude at the faulty unit
            // during the test phase only.
            Trainer retrainer(retrainHyper(t.hyper, config.retrainScale));
            auto folds = kFoldIndices(t.ds.size(), config.folds);
            RunningStat acc_stat;
            RunningStat amp_stat;
            for (size_t f = 0; f < folds.size(); ++f) {
                Dataset train_set = complementSubset(t.ds, folds, f);
                Dataset test_set = subset(t.ds, folds[f]);
                retrainer.train(*accel, train_set, rng, &t.baseline);
                accel->clearProbes();
                acc_stat.add(evalAccuracy(*accel, test_set));
                const DeviationProbe &p = accel->probe(site);
                if (p.amplitude.count() > 0)
                    amp_stat.add(p.amplitude.mean());
            }
            return Fig11Cell{amp_stat.mean(), acc_stat.mean(),
                             records.empty() ? site.describe()
                                             : records.front().what,
                             accel->simCounters()};
        },
        [&](const CampaignCell &c, const Fig11Cell &p) {
            return CellReport{c.key.task, 1,
                              static_cast<int>(c.key.rep), p.accuracy};
        });

    // Bin in cell-index order for deterministic curves.
    std::vector<Fig11Curve> curves(ctx.size());
    std::vector<LogBins> bins(ctx.size(), LogBins(-3, 3, 1));
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!out[i])
            continue;
        Fig11Curve &curve = curves[cells[i].task];
        bins[cells[i].task].add(out[i]->amplitude, out[i]->accuracy);
        curve.samples.push_back({cells[i].key.task,
                                 out[i]->amplitude, out[i]->accuracy,
                                 std::move(out[i]->site)});
        curve.sim.merge(out[i]->sim);
    }
    SimCounters total;
    for (size_t t = 0; t < ctx.size(); ++t) {
        Fig11Curve &curve = curves[t];
        curve.task = ctx[t]->spec.name;
        for (size_t b = 0; b < bins[t].numBins(); ++b)
            if (bins[t].binStat(b).count() > 0)
                curve.binAccuracy.push_back(
                    {bins[t].binCenter(b), bins[t].binStat(b).mean()});
        total.merge(curve.sim);
    }
    logSimCounters("fig11", total);
    return curves;
}

// ---------------------------------------------------------------
// JSON export

std::string
Fig5Result::toJson() const
{
    std::string out = "{\"figure\":\"fig5\",\"operator\":";
    out += jsonString(fig5OperatorName(op));
    out += ",\"defects\":" + std::to_string(defects);
    out += ",\"repetitions\":" + std::to_string(repetitions);
    out += ",\"fa_style\":" + jsonString(faStyleName(style));
    out += ",\"seed\":" + std::to_string(seed);
    out += ",\"histograms\":{\"none\":" + none.toJson();
    out += ",\"gate\":" + gate.toJson();
    out += ",\"trans\":" + trans.toJson();
    out += "},\"sim\":" + sim.toJson();
    out += "}";
    return out;
}

std::string
Fig10Curve::toJson() const
{
    std::string out =
        "{\"figure\":\"fig10\",\"task\":\"" + jsonEscape(task) +
        "\",\"points\":[";
    for (size_t i = 0; i < points.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "{\"defects\":" + std::to_string(points[i].defects);
        out += ",\"accuracy\":" + jsonNumber(points[i].accuracy);
        out += ",\"stddev\":" + jsonNumber(points[i].stddev) + "}";
    }
    out += "],\"sim\":" + sim.toJson();
    out += "}";
    return out;
}

std::string
Fig11Curve::toJson() const
{
    std::string out =
        "{\"figure\":\"fig11\",\"task\":\"" + jsonEscape(task) +
        "\",\"bins\":[";
    for (size_t i = 0; i < binAccuracy.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "{\"amplitude\":" + jsonNumber(binAccuracy[i].first);
        out += ",\"accuracy\":" + jsonNumber(binAccuracy[i].second) +
            "}";
    }
    out += "],\"samples\":[";
    for (size_t i = 0; i < samples.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "{\"amplitude\":" + jsonNumber(samples[i].amplitude);
        out += ",\"accuracy\":" + jsonNumber(samples[i].accuracy);
        out += ",\"site\":\"" + jsonEscape(samples[i].site) + "\"}";
    }
    out += "],\"sim\":" + sim.toJson();
    out += "}";
    return out;
}

} // namespace dtann
