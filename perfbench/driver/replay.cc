#include "replay.hh"

#include <fstream>
#include <optional>
#include <stdexcept>

#include "ann/train_core.hh"
#include "bench.hh"
#include "common/json.hh"
#include "common/stats.hh"
#include "core/backend.hh"
#include "core/campaign.hh"
#include "core/injector.hh"
#include "data/dataset.hh"
#include "mitigate/bist.hh"
#include "mitigate/campaign.hh"
#include "rtl/adder.hh"
#include "rtl/clean_model.hh"
#include "rtl/multiplier.hh"
#include "rtl/operator_sim.hh"

using namespace dtann;

namespace perfbench {

namespace {

/**
 * Rng::substream roots the campaign runners use (core/campaign.cc,
 * mitigate/campaign.cc). They are internal to the library; a drift
 * shows up as a payload mismatch in the faithfulness check.
 */
enum : uint64_t {
    kStreamData = 1,
    kStreamTrain = 2,
    kStreamCell = 3,
    kStreamInject = 4,
};

/** The runners' journal lookup before a cell computes. */
void
lookupSpan(Tracer &tr, CellCache &journal, const CellKey &key)
{
    Tracer::Scope s(tr, "service.journal_lookup");
    std::string cached;
    journal.lookup(key, cached);
}

/** The runners' journal store after a cell computes. */
void
storeSpan(Tracer &tr, CellCache &journal, const CellKey &key,
          const std::string &payload)
{
    Tracer::Scope s(tr, "service.journal_store");
    journal.store(key, payload);
}

/** Build the per-task contexts as prepareCampaignTasks() does. */
std::vector<TaskContext>
replayContexts(CampaignEngine &engine, const CampaignConfig &cfg,
               const std::vector<UciTaskSpec> &specs,
               std::vector<Trace> &setup, bool traced)
{
    std::vector<TaskContext> ctx(specs.size());
    size_t base = setup.size();
    setup.resize(base + specs.size());
    engine.parallelFor(specs.size(), [&](size_t t) {
        Trace &trace = setup[base + t];
        trace.id = "setup/" + specs[t].name;
        Tracer tr(trace, traced);
        Tracer::Scope root(tr, "setup.task");
        TaskContext &c = ctx[t];
        c.spec = specs[t];
        {
            Tracer::Scope s(tr, "data.synth");
            Rng rng = Rng::substream(cfg.seed, {kStreamData, t});
            c.ds = makeSyntheticTask(specs[t], rng, cfg.rows);
        }
        c.hyper = hardwareHyper(specs[t], cfg.array, cfg.epochScale);
        c.logical = {specs[t].attributes, c.hyper.hidden,
                     specs[t].classes};
        {
            Tracer::Scope s(tr, "ann.baseline_train");
            auto accel = makeBackend(cfg.backend, cfg.array, c.logical);
            Rng rng = Rng::substream(cfg.seed, {kStreamTrain, t});
            c.baseline = Trainer(c.hyper).train(*accel, c.ds, rng);
        }
    });
    return ctx;
}

void
replayFig10(const Fig10Config &cfg, int threads, CellCache &journal,
            bool traced, ReplayResult &out)
{
    std::vector<UciTaskSpec> specs = selectTasks(cfg.tasks);
    CampaignEngine engine(threads);
    double t0 = now();
    std::vector<TaskContext> ctx =
        replayContexts(engine, cfg, specs, out.setup, traced);

    struct Cell
    {
        size_t task, variant;
        int rep;
    };
    std::vector<Cell> cells;
    for (size_t t = 0; t < specs.size(); ++t)
        for (size_t d = 0; d < cfg.defectCounts.size(); ++d) {
            int reps = cfg.defectCounts[d] == 0 ? 1 : cfg.repetitions;
            for (int rep = 0; rep < reps; ++rep)
                cells.push_back({t, d, rep});
        }

    out.cells.resize(cells.size());
    engine.parallelFor(cells.size(), [&](size_t i) {
        const Cell &c = cells[i];
        const TaskContext &t = ctx[c.task];
        int defects = cfg.defectCounts[c.variant];
        CellReplay &cr = out.cells[i];
        CellKey key{"fig10", t.spec.name,
                    std::string("v") + std::to_string(c.variant) + ":d" +
                        std::to_string(defects),
                    static_cast<uint64_t>(c.rep)};
        cr.trace.id = key.toString();
        Tracer tr(cr.trace, traced);
        Tracer::Scope root(tr, "core.cell");
        lookupSpan(tr, journal, key);
        Rng rng = Rng::substream(cfg.seed,
                                 {kStreamCell, c.task, c.variant,
                                  static_cast<uint64_t>(c.rep)});
        std::unique_ptr<HardwareBackend> accel;
        {
            Tracer::Scope s(tr, "core.make_backend");
            accel = makeBackend(cfg.backend, cfg.array, t.logical);
        }
        if (defects > 0) {
            Tracer::Scope s(tr, "core.inject");
            DefectInjector injector(*accel, SitePool::inputAndHidden(),
                                    cfg.weighting);
            injector.inject(defects, rng);
        }
        double acc = 0.0;
        if (cfg.retrain) {
            // crossValidate(), unrolled so each fold's train and
            // eval get their own spans.
            Trainer retrainer(retrainHyper(t.hyper, cfg.retrainScale));
            auto folds = kFoldIndices(t.ds.size(), cfg.folds);
            RunningStat stat;
            for (size_t f = 0; f < folds.size(); ++f) {
                std::optional<Dataset> train_set, test_set;
                {
                    Tracer::Scope s(tr, "data.fold_split");
                    train_set.emplace(complementSubset(t.ds, folds, f));
                    test_set.emplace(subset(t.ds, folds[f]));
                }
                uint64_t v0 = accel->simCounters().vectors();
                {
                    Tracer::Scope s(tr, "ann.retrain");
                    retrainer.train(*accel, *train_set, rng, &t.baseline);
                }
                uint64_t v1 = accel->simCounters().vectors();
                {
                    Tracer::Scope s(tr, "ann.eval");
                    stat.add(evalAccuracy(*accel, *test_set));
                }
                cr.retrainVectors += v1 - v0;
                cr.evalVectors += accel->simCounters().vectors() - v1;
            }
            acc = stat.mean();
        } else {
            accel->setWeights(t.baseline);
            uint64_t v0 = accel->simCounters().vectors();
            {
                Tracer::Scope s(tr, "ann.eval");
                acc = evalAccuracy(*accel, t.ds);
            }
            cr.evalVectors += accel->simCounters().vectors() - v0;
        }
        cr.payload = "{\"accuracy\":" + jsonNumber(acc) +
            ",\"sim\":" + accel->simCounters().toJson() + "}";
        storeSpan(tr, journal, key, cr.payload);
    });
    out.wall = now() - t0;
}

void
replayMitigation(const MitigationConfig &cfg, int threads,
                 CellCache &journal, bool traced, ReplayResult &out)
{
    std::vector<UciTaskSpec> specs = selectTasks(cfg.tasks);
    CampaignEngine engine(threads);
    double t0 = now();
    std::vector<TaskContext> ctx =
        replayContexts(engine, cfg, specs, out.setup, traced);

    struct Cell
    {
        size_t task, variant, strat;
        int rep;
    };
    std::vector<Cell> cells;
    for (size_t t = 0; t < specs.size(); ++t)
        for (size_t d = 0; d < cfg.defectCounts.size(); ++d) {
            int reps = cfg.defectCounts[d] == 0 ? 1 : cfg.repetitions;
            for (size_t s = 0; s < cfg.strategies.size(); ++s)
                for (int rep = 0; rep < reps; ++rep)
                    cells.push_back({t, d, s, rep});
        }

    auto setupOf = [&](const Cell &c) {
        const TaskContext &t = ctx[c.task];
        return MitigationSetup{cfg.array,
                               t.logical,
                               t.ds,
                               retrainHyper(t.hyper, cfg.retrainScale),
                               t.baseline,
                               cfg.folds,
                               cfg.bist,
                               cfg.backend};
    };
    auto injectRng = [&](const Cell &c) {
        return Rng::substream(cfg.seed,
                              {kStreamInject, c.task, c.variant,
                               static_cast<uint64_t>(c.rep)});
    };
    auto cellRng = [&](const Cell &c) {
        return Rng::substream(
            cfg.seed,
            {kStreamCell, c.task, c.variant,
             static_cast<uint64_t>(cfg.strategies[c.strat]),
             static_cast<uint64_t>(c.rep)});
    };

    out.cells.resize(cells.size());
    engine.parallelFor(cells.size(), [&](size_t i) {
        const Cell &c = cells[i];
        int defects = cfg.defectCounts[c.variant];
        Strategy strategy = cfg.strategies[c.strat];
        CellReplay &cr = out.cells[i];
        CellKey key{"mitigation", ctx[c.task].spec.name,
                    std::string("v") + std::to_string(c.variant) + ":d" +
                        std::to_string(defects) + ":" +
                        strategyName(strategy),
                    static_cast<uint64_t>(c.rep)};
        cr.trace.id = key.toString();
        Tracer tr(cr.trace, traced);
        Tracer::Scope root(tr, "core.cell");
        lookupSpan(tr, journal, key);
        MitigationSetup setup = setupOf(c);
        auto inject = [&](HardwareBackend &accel) {
            if (defects <= 0)
                return;
            Tracer::Scope s(tr, "core.inject");
            Rng rng = injectRng(c);
            DefectInjector injector(accel, cfg.injectPool,
                                    cfg.weighting);
            injector.inject(defects, rng);
        };
        Rng rng = cellRng(c);
        MitigationOutcome o;
        {
            Tracer::Scope s(tr, std::string("mitigate.run.") +
                                    strategyName(strategy));
            o = makeMitigator(strategy)->run(setup, inject, rng);
        }
        cr.payload = "{\"accuracy\":" + jsonNumber(o.accuracy) +
            ",\"coverage\":" + jsonNumber(o.coverage) +
            ",\"diagnosed\":" + std::to_string(o.diagnosed) +
            ",\"mitigated_units\":" + std::to_string(o.mitigatedUnits) +
            ",\"sim\":" + o.sim.toJson() + "}";
        storeSpan(tr, journal, key, cr.payload);
    });
    out.wall = now() - t0;
    if (!traced)
        return;

    // BIST happens inside the bypass strategy's run(); time it on a
    // shadow array with identical defects and the cell's own stream,
    // which the strategy hands to diagnose() untouched.
    std::vector<size_t> diagnosing;
    for (size_t i = 0; i < cells.size(); ++i)
        if (cfg.strategies[cells[i].strat] == Strategy::BypassFaulty)
            diagnosing.push_back(i);
    out.shadow.resize(diagnosing.size());
    engine.parallelFor(diagnosing.size(), [&](size_t k) {
        const Cell &c = cells[diagnosing[k]];
        Trace &trace = out.shadow[k];
        trace.id = out.cells[diagnosing[k]].trace.id;
        Tracer tr(trace, traced);
        auto accel =
            makeBackend(cfg.backend, cfg.array, ctx[c.task].logical);
        int defects = cfg.defectCounts[c.variant];
        if (defects > 0) {
            Rng rng = injectRng(c);
            DefectInjector injector(*accel, cfg.injectPool,
                                    cfg.weighting);
            injector.inject(defects, rng);
        }
        Rng rng = cellRng(c);
        Tracer::Scope s(tr, "mitigate.bist");
        diagnose(*accel, cfg.bist, rng);
    });
}

void
replayFig5(const Fig5Sweep &sweep, int threads, CellCache &journal,
           bool traced, ReplayResult &out)
{
    CampaignEngine engine(threads);
    double t0 = now();
    for (const Fig5Config &v : sweep.expand()) {
        const char *op_name = fig5OperatorName(v.op);
        out.setup.emplace_back();
        Trace &setup = out.setup.back();
        setup.id = std::string("setup/") + op_name;
        std::shared_ptr<const Netlist> nl;
        {
            Tracer tr(setup, traced);
            Tracer::Scope s(tr, "rtl.build_netlist");
            nl = std::make_shared<const Netlist>(
                v.op == Fig5Operator::Adder4
                    ? buildRippleAdder(4, v.style, true)
                    : buildMultiplierUnsigned(4, v.style));
        }
        size_t out_bits = nl->outputs().size();
        uint64_t mask = (1ull << out_bits) - 1;
        CleanFn clean_fn = v.op == Fig5Operator::Adder4
            ? cleanAdder(4, true)
            : cleanMultiplierUnsigned(4);
        size_t reps = static_cast<size_t>(std::max(0, v.repetitions));
        size_t base = out.cells.size();
        out.cells.resize(base + reps);
        std::string variant = std::string("d") + std::to_string(v.defects);
        engine.parallelFor(reps, [&](size_t rep) {
            CellReplay &cr = out.cells[base + rep];
            CellKey key{"fig5", op_name, variant, rep};
            cr.trace.id = key.toString();
            Tracer tr(cr.trace, traced);
            Tracer::Scope root(tr, "core.cell");
            lookupSpan(tr, journal, key);
            Rng rng = Rng::substream(v.seed, {kStreamCell, rep});
            std::optional<Injection> trans_inj, gate_inj;
            {
                Tracer::Scope s(tr, "transistor.inject");
                trans_inj.emplace(
                    injectTransistorDefects(*nl, v.defects, rng));
            }
            {
                Tracer::Scope s(tr, "rtl.gate_inject");
                gate_inj.emplace(injectGateLevelFaults(*nl, v.defects, rng));
            }
            std::optional<OperatorSim> trans_sim, gate_sim;
            {
                Tracer::Scope s(tr, "rtl.sim_build");
                trans_sim.emplace(nl, std::move(*trans_inj), clean_fn);
                gate_sim.emplace(nl, std::move(*gate_inj), clean_fn);
            }
            std::vector<uint64_t> pairs(256);
            for (uint64_t i = 0; i < 256; ++i)
                pairs[i] = i;
            rng.shuffle(pairs);
            std::vector<uint64_t> trans_out(256), gate_out(256);
            {
                Tracer::Scope s(tr, "rtl.apply_lanes");
                trans_sim->applyLanes(pairs.data(), trans_out.data(), 256);
                gate_sim->applyLanes(pairs.data(), gate_out.data(), 256);
            }
            cr.operatorVectors = 2 * pairs.size();
            IntHistogram none, gate, trans;
            for (size_t i = 0; i < 256; ++i) {
                uint64_t a = pairs[i] & 0xf, b = pairs[i] >> 4;
                none.add(static_cast<int64_t>(
                    v.op == Fig5Operator::Adder4 ? a + b : a * b));
                trans.add(static_cast<int64_t>(trans_out[i] & mask));
                gate.add(static_cast<int64_t>(gate_out[i] & mask));
            }
            SimCounters sim = trans_sim->counters();
            sim.merge(gate_sim->counters());
            cr.payload = "{\"none\":" + none.toJson() +
                ",\"gate\":" + gate.toJson() +
                ",\"trans\":" + trans.toJson() +
                ",\"sim\":" + sim.toJson() + "}";
            storeSpan(tr, journal, key, cr.payload);
        });
    }
    out.wall = now() - t0;
}

} // namespace

ReplayResult
replaySpec(const ScenarioSpec &spec, int threads, CellCache &journal,
           bool traced)
{
    ReplayResult out;
    if (spec.kind == "fig10")
        replayFig10(spec.fig10, threads, journal, traced, out);
    else if (spec.kind == "mitigation")
        replayMitigation(spec.mitigation, threads, journal, traced, out);
    else if (spec.kind == "fig5")
        replayFig5(spec.fig5, threads, journal, traced, out);
    else
        throw std::invalid_argument("no traced replay for kind '" +
                                    spec.kind + "'");
    return out;
}

std::map<std::string, double>
selfTimes(const std::vector<Trace> &traces)
{
    std::map<std::string, double> self;
    for (const Trace &trace : traces) {
        std::vector<double> children(trace.spans.size(), 0.0);
        for (const Span &s : trace.spans)
            if (s.parent >= 0)
                children[static_cast<size_t>(s.parent)] += s.t1 - s.t0;
        for (size_t i = 0; i < trace.spans.size(); ++i)
            self[trace.spans[i].name] +=
                trace.spans[i].t1 - trace.spans[i].t0 - children[i];
    }
    return self;
}

double
childCovered(const Trace &trace)
{
    double covered = 0.0;
    for (const Span &s : trace.spans)
        if (s.parent == 0)
            covered += s.t1 - s.t0;
    return covered;
}

void
writeTraces(const std::string &path, const std::vector<const Trace *> &traces)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write '" + path + "'");
    for (const Trace *trace : traces)
        for (size_t i = 0; i < trace->spans.size(); ++i) {
            const Span &s = trace->spans[i];
            out << "{\"trace\":" << jsonString(trace->id)
                << ",\"span\":" << i << ",\"parent\":" << s.parent
                << ",\"name\":" << jsonString(s.name)
                << ",\"start\":" << jsonNumber(s.t0)
                << ",\"end\":" << jsonNumber(s.t1) << "}\n";
        }
}

} // namespace perfbench
