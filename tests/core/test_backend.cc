/**
 * @file
 * Cross-backend differential suite for the HardwareBackend
 * boundary: both microarchitectures must agree bit-exactly on the
 * defect-free forward pass of every paper task (the property that
 * makes defect campaigns comparable across backends), and the
 * backend naming / construction / enumeration plumbing must hold.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <type_traits>

#include "ann/fixed_mlp.hh"
#include "ann/sigmoid.hh"
#include "core/accelerator.hh"
#include "core/injector.hh"
#include "core/systolic.hh"
#include "data/synth_uci.hh"
#include "mitigate/mitigator.hh"

namespace dtann {
namespace {

AcceleratorConfig
smallArray()
{
    AcceleratorConfig cfg;
    cfg.inputs = 12;
    cfg.hidden = 4;
    cfg.outputs = 3;
    return cfg;
}

TEST(Backend, NamesRoundTrip)
{
    EXPECT_STREQ(backendName(BackendKind::Spatial), "spatial");
    EXPECT_STREQ(backendName(BackendKind::Systolic), "systolic");
    BackendKind kind;
    EXPECT_TRUE(backendFromName("spatial", kind));
    EXPECT_EQ(kind, BackendKind::Spatial);
    EXPECT_TRUE(backendFromName("systolic", kind));
    EXPECT_EQ(kind, BackendKind::Systolic);
    EXPECT_FALSE(backendFromName("tpu", kind));
    EXPECT_FALSE(backendFromName("", kind));
    // The error-message name list covers exactly the valid names.
    EXPECT_EQ(backendNameList(), "spatial, systolic");
}

TEST(Backend, MakeBackendConstructsTheRequestedKind)
{
    auto spatial =
        makeBackend(BackendKind::Spatial, smallArray(), {12, 4, 3});
    EXPECT_EQ(spatial->backendKind(), BackendKind::Spatial);
    auto systolic =
        makeBackend(BackendKind::Systolic, smallArray(), {12, 4, 3});
    EXPECT_EQ(systolic->backendKind(), BackendKind::Systolic);
    // The legacy name keeps meaning the paper's microarchitecture.
    static_assert(std::is_same_v<Accelerator, SpatialBackend>);
}

TEST(Backend, CleanForwardAgreesAcrossBackendsOnAllPaperTasks)
{
    // The acceptance differential: for every task of the paper's
    // benchmark suite, the spatial array and the systolic grid
    // produce bit-identical defect-free activations (and both match
    // the fixed-point reference network).
    AcceleratorConfig cfg; // the paper's 90-10-10 array
    for (const UciTaskSpec &task : uciTasks()) {
        ASSERT_LE(task.attributes, cfg.inputs) << task.name;
        ASSERT_LE(task.classes, cfg.outputs) << task.name;
        // Tasks wider than the array run through the time-mux
        // wrapper in the campaigns; the direct-mapped differential
        // clamps to what fits.
        MlpTopology topo{task.attributes,
                         std::min(task.hidden, cfg.hidden),
                         task.classes};
        auto spatial = makeBackend(BackendKind::Spatial, cfg, topo);
        auto systolic = makeBackend(BackendKind::Systolic, cfg, topo);
        FixedMlp ref(topo);
        DeepWeights w(topo);
        Rng rng(101);
        w.initRandom(rng, 2.0);
        spatial->setWeights(w);
        systolic->setWeights(w);
        ref.setWeights(w);
        for (int t = 0; t < 10; ++t) {
            std::vector<double> in(
                static_cast<size_t>(task.attributes));
            for (double &v : in)
                v = rng.nextDouble();
            Activations a = spatial->forward(in);
            Activations b = systolic->forward(in);
            Activations c = ref.forward(in);
            EXPECT_EQ(a.hidden(), b.hidden()) << task.name;
            EXPECT_EQ(a.output(), b.output()) << task.name;
            EXPECT_EQ(a.output(), c.output()) << task.name;
        }
    }
}

TEST(Backend, CleanForwardBatchAgreesAcrossBackends)
{
    MlpTopology topo{12, 4, 3};
    auto spatial = makeBackend(BackendKind::Spatial, smallArray(), topo);
    auto systolic =
        makeBackend(BackendKind::Systolic, smallArray(), topo);
    DeepWeights w(topo);
    Rng rng(103);
    w.initRandom(rng, 2.0);
    spatial->setWeights(w);
    systolic->setWeights(w);

    // 70 rows: one full 64-lane sweep plus a ragged remainder.
    std::vector<std::vector<double>> rows(70, std::vector<double>(12));
    for (auto &r : rows)
        for (double &v : r)
            v = rng.nextDouble();
    std::vector<Activations> a = spatial->forwardBatch(rows);
    std::vector<Activations> b = systolic->forwardBatch(rows);
    ASSERT_EQ(a.size(), rows.size());
    ASSERT_EQ(b.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(a[i].hidden(), b[i].hidden()) << "row " << i;
        EXPECT_EQ(a[i].output(), b[i].output()) << "row " << i;
    }
}

TEST(Backend, SpatialEnumerationMatchesFreeFunction)
{
    // SpatialBackend::enumerateSites is the refactored home of the
    // original free enumeration; both must list the same population
    // in the same order (campaign stream compatibility).
    SpatialBackend accel(smallArray(), {12, 4, 3});
    for (const SitePool &pool :
         {SitePool::all(), SitePool::inputAndHidden(),
          SitePool::outputCritical()}) {
        EXPECT_EQ(accel.enumerateSites(pool),
                  enumerateSites(accel.config(), pool));
    }
}

TEST(Backend, SystolicGridGeometryAndEnumeration)
{
    SystolicBackend accel(smallArray(), {12, 4, 3});
    // rows = max(inputs, hidden) + 1 (bias row), cols = max(hidden,
    // outputs).
    EXPECT_EQ(accel.gridRows(), 13);
    EXPECT_EQ(accel.gridCols(), 4);
    EXPECT_EQ(accel.unitCount(UnitKind::WeightLatch), 13 * 4);
    EXPECT_EQ(accel.unitCount(UnitKind::Multiplier), 13 * 4);
    EXPECT_EQ(accel.unitCount(UnitKind::AdderStage), 12 * 4);
    EXPECT_EQ(accel.unitCount(UnitKind::Activation), 4);

    // Full-pool enumeration: every grid unit some pass uses, once,
    // at its Hidden-canonical physical address.
    std::vector<UnitSite> sites = accel.enumerateSites(SitePool::all());
    std::set<UnitSite> unique(sites.begin(), sites.end());
    EXPECT_EQ(unique.size(), sites.size());
    for (const UnitSite &s : sites) {
        EXPECT_EQ(s.layer, Layer::Hidden) << s.describe();
        EXPECT_LT(s.neuron, accel.gridCols()) << s.describe();
        EXPECT_LT(s.index, accel.gridRows()) << s.describe();
    }
    // The hidden pass uses all 13 rows of its 4 columns; the output
    // pass only adds sites the hidden pass already covers (3 of the
    // 4 columns, rows 0..4), so the count is the hidden pass's:
    // 13*4 latches + 13*4 mults + 12*4 adders + 4 activations.
    EXPECT_EQ(sites.size(), 13u * 4 + 13u * 4 + 12u * 4 + 4);

    // The output-critical pool reaches only what the hidden->output
    // schedule touches: adder stages 0..3 and the activation foot
    // of columns 0..2.
    std::vector<UnitSite> critical =
        accel.enumerateSites(SitePool::outputCritical());
    EXPECT_EQ(critical.size(), 4u * 3 + 3);
    for (const UnitSite &s : critical)
        EXPECT_TRUE(s.kind == UnitKind::AdderStage ||
                    s.kind == UnitKind::Activation)
            << s.describe();
}

/**
 * The unelided multiply/add chain, rebuilt from the BIST scan hooks
 * (which drive every unit, whatever its weight) on a backend the
 * test owns: the reference the forward chain's zero-weight elision
 * must reproduce bit for bit, probes and simulation work included.
 */
struct ScanChain
{
    HardwareBackend &hw;
    std::vector<std::vector<Fix16>> weights[2]; // [pass][neuron][i]
    std::vector<Acc24> sums;                    // last hidden pass
    uint64_t clampHits = 0;

    void
    setWeights(const DeepWeights &w)
    {
        const AcceleratorConfig &cfg = hw.config();
        MlpTopology t = hw.topology();
        for (Layer pass : {Layer::Hidden, Layer::Output}) {
            bool hid = pass == Layer::Hidden;
            int fanin = hid ? cfg.inputs : cfg.hidden;
            int used_fanin = hid ? t.inputs : t.hidden;
            auto &rows = weights[static_cast<size_t>(pass)];
            rows.assign(static_cast<size_t>(hid ? cfg.hidden : cfg.outputs),
                        std::vector<Fix16>(static_cast<size_t>(fanin + 1)));
            for (int n = 0; n < static_cast<int>(rows.size()); ++n) {
                for (int i = 0; i <= fanin; ++i) {
                    double v = 0.0;
                    int li = i == fanin ? used_fanin : i;
                    if (n < (hid ? t.hidden : t.outputs) &&
                        (i < used_fanin || i == fanin))
                        v = hid ? w.hid(n, li) : w.out(n, li);
                    rows[static_cast<size_t>(n)]
                        [static_cast<size_t>(i)] = hw.bistLatchStore(
                            pass, n, i, Fix16::fromDouble(v));
                }
            }
        }
    }

    Fix16
    clamp(Layer pass, Fix16 x)
    {
        const ActivationClamp &c = hw.activationClamp(pass);
        int16_t v = static_cast<int16_t>(x.bits());
        if (c.enabled && v < static_cast<int16_t>(c.lo.bits())) {
            ++clampHits;
            return c.lo;
        }
        if (c.enabled && v > static_cast<int16_t>(c.hi.bits())) {
            ++clampHits;
            return c.hi;
        }
        return x;
    }

    std::vector<Fix16>
    run(Layer pass, const std::vector<Fix16> &in)
    {
        const auto &rows = weights[static_cast<size_t>(pass)];
        int fanin = static_cast<int>(rows[0].size()) - 1;
        std::vector<Fix16> out;
        if (pass == Layer::Hidden)
            sums.clear();
        for (int n = 0; n < static_cast<int>(rows.size()); ++n) {
            const auto &w = rows[static_cast<size_t>(n)];
            Acc24 acc = Acc24::fromFix16(hw.bistMul(pass, n, 0, w[0], in[0]));
            for (int i = 1; i <= fanin; ++i) {
                Fix16 x = i < fanin ? in[static_cast<size_t>(i)]
                                    : Fix16::fromDouble(1.0);
                Fix16 p = hw.bistMul(pass, n, i, w[static_cast<size_t>(i)], x);
                acc = hw.bistAdd(pass, n, i - 1, acc, Acc24::fromFix16(p));
            }
            if (pass == Layer::Hidden)
                sums.push_back(acc);
            out.push_back(clamp(pass, hw.bistAct(pass, n, acc.toFix16Sat())));
        }
        return out;
    }

    Activations
    forward(const std::vector<double> &in)
    {
        std::vector<Fix16> phys(static_cast<size_t>(hw.config().inputs));
        for (size_t i = 0; i < in.size(); ++i)
            phys[i] = Fix16::fromDouble(in[i]);
        std::vector<Fix16> hid = run(Layer::Hidden, phys);
        std::vector<Fix16> out = run(Layer::Output, hid);
        MlpTopology t = hw.topology();
        Activations act(static_cast<size_t>(t.hidden),
                        static_cast<size_t>(t.outputs));
        for (int j = 0; j < t.hidden; ++j)
            act.hidden()[static_cast<size_t>(j)] =
                hid[static_cast<size_t>(j)].toDouble();
        for (int k = 0; k < t.outputs; ++k)
            act.output()[static_cast<size_t>(k)] =
                out[static_cast<size_t>(k)].toDouble();
        return act;
    }
};

/**
 * Every pass address of @p hw reaches its unit's simulation exactly
 * when isFaulty() says the unit is defective and not bypassed, a
 * bypassed unit drops out of the datapath, and every other unit
 * computes clean arithmetic: the unit-state lookup the forward
 * chain elides by agrees with the ground-truth queries on both
 * passes of a shared unit.
 */
void
expectUnitsRouteLikeGroundTruth(HardwareBackend &hw)
{
    const AcceleratorConfig &cfg = hw.config();
    const Fix16 w = Fix16::fromDouble(1.5), x = Fix16::fromDouble(0.75);
    const Acc24 a = Acc24::fromFix16(x), b = Acc24::fromFix16(w);
    auto expectRouted = [&](const UnitSite &s, uint64_t vectors,
                            auto op, auto bypassed_value,
                            auto clean_value) {
        uint64_t before = hw.simCounters().vectors();
        auto got = op();
        bool live = hw.isFaulty(s) && !hw.isBypassed(s);
        EXPECT_EQ(hw.simCounters().vectors() - before, live ? vectors : 0)
            << s.describe();
        if (hw.isBypassed(s)) {
            EXPECT_EQ(got, bypassed_value) << s.describe();
        } else if (!live) {
            EXPECT_EQ(got, clean_value) << s.describe();
        }
    };
    for (Layer pass : {Layer::Hidden, Layer::Output}) {
        bool hid = pass == Layer::Hidden;
        int fanin = hid ? cfg.inputs : cfg.hidden;
        for (int n = 0; n < (hid ? cfg.hidden : cfg.outputs); ++n) {
            for (int i = 0; i <= fanin; ++i) {
                expectRouted({UnitKind::WeightLatch, pass, n, i}, 2,
                             [&] { return hw.bistLatchStore(pass, n, i, w); },
                             Fix16(), w);
                expectRouted({UnitKind::Multiplier, pass, n, i}, 1,
                             [&] { return hw.bistMul(pass, n, i, w, x); },
                             Fix16(), Fix16::hwMul(w, x));
                if (i < fanin)
                    expectRouted(
                        {UnitKind::AdderStage, pass, n, i}, 1,
                        [&] { return hw.bistAdd(pass, n, i, a, b); }, a,
                        Acc24::hwAdd(a, b));
            }
            expectRouted({UnitKind::Activation, pass, n, 0}, 1,
                         [&] { return hw.bistAct(pass, n, x); }, Fix16(),
                         logisticPwlFix(x));
        }
    }
}

TEST(Backend, ZeroWeightElisionMatchesTheScanPathChain)
{
    // A 5-2-2 task on the 12-4-3 array: most synapses hold weight 0.
    // Defects and bypasses sit on zero-weight synapses (their
    // multipliers, the adder stages those feed, their latches) and
    // on all-zero neurons, where an elision that ignored the unit
    // state would drop simulated work or a deviation probe sample.
    AcceleratorConfig cfg = smallArray();
    MlpTopology topo{5, 2, 2};
    const UnitSite defects[] = {
        {UnitKind::WeightLatch, Layer::Hidden, 0, 7},
        {UnitKind::WeightLatch, Layer::Output, 1, 3},
        {UnitKind::Multiplier, Layer::Hidden, 0, 8},
        {UnitKind::Multiplier, Layer::Hidden, 2, 3},
        {UnitKind::Multiplier, Layer::Output, 0, 2},
        {UnitKind::AdderStage, Layer::Hidden, 1, 6},
        {UnitKind::AdderStage, Layer::Output, 2, 1},
        {UnitKind::Activation, Layer::Hidden, 3, 0},
    };
    const UnitSite bypasses[] = {
        {UnitKind::Multiplier, Layer::Hidden, 1, 9},
        {UnitKind::AdderStage, Layer::Hidden, 0, 9},
        {UnitKind::WeightLatch, Layer::Hidden, 3, 5},
        {UnitKind::Multiplier, Layer::Output, 1, 3},
    };
    for (BackendKind kind : {BackendKind::Spatial, BackendKind::Systolic}) {
        for (uint64_t seed : {11u, 12u, 13u}) {
            SCOPED_TRACE(std::string(backendName(kind)) + " seed " +
                         std::to_string(seed));
            auto build = [&] {
                auto b = makeBackend(kind, cfg, topo);
                Rng rng(seed);
                for (const UnitSite &s : defects)
                    b->injectDefects(s, 3, rng);
                for (const UnitSite &s : bypasses)
                    b->bypassUnit(s);
                b->setActivationClamp(Layer::Hidden,
                                      Fix16::fromDouble(0.2),
                                      Fix16::fromDouble(0.8));
                b->setActivationClamp(Layer::Output,
                                      Fix16::fromDouble(0.1),
                                      Fix16::fromDouble(0.9));
                return b;
            };
            auto hw = build();
            auto twin = build();
            auto scan = build();
            expectUnitsRouteLikeGroundTruth(*scan);
            scan->clearBypasses();
            expectUnitsRouteLikeGroundTruth(*scan);
            scan->clearDefects();
            expectUnitsRouteLikeGroundTruth(*scan);
            ScanChain ref{*twin, {}, {}, 0};
            Rng data(seed + 100);
            for (int round = 0; round < 3; ++round) {
                DeepWeights w(topo);
                w.initRandom(data, 2.0);
                w.hid(1, 2) = 0.0; // logical zeros elide like padding
                w.out(0, 1) = 0.0;
                hw->setWeights(w);
                ref.setWeights(w);

                SimCounters h0 = hw->simCounters();
                SimCounters t0 = twin->simCounters();
                std::vector<std::vector<double>> rows(
                    70, std::vector<double>(5));
                for (auto &r : rows)
                    for (double &v : r)
                        v = data.nextDouble();
                for (size_t r = 0; r < 12; ++r) {
                    Activations a = hw->forward(rows[r]);
                    Activations b = ref.forward(rows[r]);
                    ASSERT_EQ(a.hidden(), b.hidden()) << "row " << r;
                    ASSERT_EQ(a.output(), b.output()) << "row " << r;
                    ASSERT_EQ(hw->hiddenSums(), ref.sums) << "row " << r;
                }
                // Per-row scalar work matches field for field.
                SimCounters h1 = hw->simCounters();
                SimCounters t1 = twin->simCounters();
                EXPECT_EQ(h1.scalarVectors - h0.scalarVectors,
                          t1.scalarVectors - t0.scalarVectors);
                EXPECT_EQ(h1.gateEvals - h0.gateEvals,
                          t1.gateEvals - t0.gateEvals);

                // The lane chain: outputs against the per-row
                // reference; every unit sees the same vectors.
                std::vector<Activations> batch = hw->forwardBatch(rows);
                for (size_t r = 0; r < rows.size(); ++r) {
                    Activations b = ref.forward(rows[r]);
                    ASSERT_EQ(batch[r].hidden(), b.hidden()) << "row " << r;
                    ASSERT_EQ(batch[r].output(), b.output()) << "row " << r;
                }
                EXPECT_EQ(hw->hiddenSums(), ref.sums);
                EXPECT_EQ(hw->simCounters().vectors(),
                          twin->simCounters().vectors());
                EXPECT_EQ(hw->clampHits(), ref.clampHits);

                for (const UnitSite &s : hw->enumerateSites(SitePool::all())) {
                    const RunningStat &a = hw->probe(s).amplitude;
                    const RunningStat &b = twin->probe(s).amplitude;
                    ASSERT_EQ(a.count(), b.count()) << s.describe();
                    ASSERT_EQ(a.mean(), b.mean()) << s.describe();
                    ASSERT_EQ(a.variance(), b.variance()) << s.describe();
                    ASSERT_EQ(a.max(), b.max()) << s.describe();
                }
            }
        }
    }
}

TEST(Backend, StrategySupportMatrix)
{
    // Spare-row remapping and critical replication assume the
    // spatial array's dedicated spare rows; everything else works
    // on any backend.
    for (Strategy s :
         {Strategy::NoOp, Strategy::RetrainOnly, Strategy::BypassFaulty,
          Strategy::RemapToSpares, Strategy::ClampActivations,
          Strategy::ReplicateCritical})
        EXPECT_TRUE(strategySupported(s, BackendKind::Spatial));
    EXPECT_FALSE(
        strategySupported(Strategy::RemapToSpares, BackendKind::Systolic));
    EXPECT_FALSE(strategySupported(Strategy::ReplicateCritical,
                                   BackendKind::Systolic));
    EXPECT_TRUE(strategySupported(Strategy::NoOp, BackendKind::Systolic));
    EXPECT_TRUE(
        strategySupported(Strategy::RetrainOnly, BackendKind::Systolic));
    EXPECT_TRUE(
        strategySupported(Strategy::BypassFaulty, BackendKind::Systolic));
    EXPECT_TRUE(strategySupported(Strategy::ClampActivations,
                                  BackendKind::Systolic));
}

} // namespace
} // namespace dtann
