/**
 * @file
 * Differential test of the per-row synapse bitmasks of
 * HardwareBackend. The backend writes only the latches its masks
 * mark (logical corner, faulty or bypassed latches, nonzero stored
 * weights) and walks only the synapses they mark live; a test-local
 * reference writes every latch and runs every synapse through the
 * bist* hooks of a twin injected from the same seed. The two must
 * agree on outputs, hidden sums, clamp hits, simulation work and
 * every deviation probe across the transitions that set and clear
 * the masks.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/accelerator.hh"

namespace dtann {
namespace {

/** 70 inputs, so a hidden row (71 synapses) spans two mask words. */
AcceleratorConfig
twoWordArray()
{
    AcceleratorConfig cfg;
    cfg.inputs = 70;
    cfg.hidden = 4;
    cfg.outputs = 3;
    return cfg;
}

/**
 * The write path and chain before the masks: every latch is written
 * on every weight load, and every synapse runs through its
 * multiplier and adder stage.
 */
struct FullScan
{
    HardwareBackend &hw;
    std::vector<std::vector<Fix16>> rows[2];
    std::vector<Acc24> sums;
    uint64_t clampHits = 0;

    explicit FullScan(HardwareBackend &twin) : hw(twin)
    {
        const AcceleratorConfig &cfg = hw.config();
        rows[0].assign(static_cast<size_t>(cfg.hidden),
                       std::vector<Fix16>(
                           static_cast<size_t>(cfg.inputs + 1)));
        rows[1].assign(static_cast<size_t>(cfg.outputs),
                       std::vector<Fix16>(
                           static_cast<size_t>(cfg.hidden + 1)));
    }

    void
    loadRow(Layer pass, int n, const std::vector<Fix16> &w)
    {
        auto &row = rows[static_cast<size_t>(pass)][static_cast<size_t>(n)];
        for (size_t i = 0; i < row.size(); ++i)
            row[i] = hw.bistLatchStore(pass, n, static_cast<int>(i), w[i]);
    }

    void
    setWeights(const DeepWeights &w)
    {
        MlpTopology t = hw.topology();
        for (Layer pass : {Layer::Hidden, Layer::Output}) {
            bool hid = pass == Layer::Hidden;
            auto &bank = rows[static_cast<size_t>(pass)];
            int fanin = static_cast<int>(bank[0].size()) - 1;
            int used_fanin = hid ? t.inputs : t.hidden;
            for (int n = 0; n < static_cast<int>(bank.size()); ++n) {
                std::vector<Fix16> row(bank[0].size());
                for (int i = 0; i <= fanin; ++i) {
                    int li = i == fanin ? used_fanin : i;
                    if (n < (hid ? t.hidden : t.outputs) &&
                        (i < used_fanin || i == fanin))
                        row[static_cast<size_t>(i)] = Fix16::fromDouble(
                            hid ? w.hid(n, li) : w.out(n, li));
                }
                loadRow(pass, n, row);
            }
        }
    }

    bool
    busy(UnitKind kind, Layer pass, int n, int i) const
    {
        UnitSite s{kind, pass, n, i};
        return hw.isFaulty(s) || hw.isBypassed(s);
    }

    /** Synapses i >= 1 the old per-synapse scan did not elide. */
    std::vector<int>
    live(Layer pass, int n) const
    {
        const auto &w = rows[static_cast<size_t>(pass)][static_cast<size_t>(n)];
        std::vector<int> out;
        for (int i = 1; i < static_cast<int>(w.size()); ++i)
            if (w[static_cast<size_t>(i)].raw() != 0 ||
                busy(UnitKind::Multiplier, pass, n, i) ||
                busy(UnitKind::AdderStage, pass, n, i - 1))
                out.push_back(i);
        return out;
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
        const auto &bank = rows[static_cast<size_t>(pass)];
        int fanin = static_cast<int>(bank[0].size()) - 1;
        std::vector<Fix16> out;
        if (pass == Layer::Hidden)
            sums.clear();
        for (int n = 0; n < static_cast<int>(bank.size()); ++n) {
            const auto &w = bank[static_cast<size_t>(n)];
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

/** Everything observable of @p hw agrees with the full scan. */
void
expectMatchesFullScan(HardwareBackend &hw, FullScan &ref,
                      HardwareBackend &twin, Rng &data)
{
    const AcceleratorConfig &cfg = hw.config();
    for (Layer pass : {Layer::Hidden, Layer::Output})
        for (int n = 0;
             n < (pass == Layer::Hidden ? cfg.hidden : cfg.outputs); ++n)
            ASSERT_EQ(hw.liveSynapses(pass, n), ref.live(pass, n))
                << (pass == Layer::Hidden ? "hid" : "out") << " n" << n;

    std::vector<std::vector<double>> rows(
        20, std::vector<double>(static_cast<size_t>(hw.topology().inputs)));
    for (auto &r : rows)
        for (double &v : r)
            v = data.nextDouble() * 2.0 - 1.0;
    SimCounters h0 = hw.simCounters(), t0 = twin.simCounters();
    for (size_t r = 0; r < 6; ++r) {
        Activations a = hw.forward(rows[r]);
        Activations b = ref.forward(rows[r]);
        ASSERT_EQ(a.hidden(), b.hidden()) << "row " << r;
        ASSERT_EQ(a.output(), b.output()) << "row " << r;
        ASSERT_EQ(hw.hiddenSums(), ref.sums) << "row " << r;
    }
    // Per-row scalar work matches field for field.
    SimCounters h1 = hw.simCounters(), t1 = twin.simCounters();
    EXPECT_EQ(h1.scalarVectors - h0.scalarVectors,
              t1.scalarVectors - t0.scalarVectors);
    EXPECT_EQ(h1.batchVectors - h0.batchVectors,
              t1.batchVectors - t0.batchVectors);
    EXPECT_EQ(h1.gateEvals - h0.gateEvals, t1.gateEvals - t0.gateEvals);

    std::vector<Activations> batch = hw.forwardBatch(rows);
    for (size_t r = 0; r < rows.size(); ++r) {
        Activations b = ref.forward(rows[r]);
        ASSERT_EQ(batch[r].hidden(), b.hidden()) << "batch row " << r;
        ASSERT_EQ(batch[r].output(), b.output()) << "batch row " << r;
    }
    EXPECT_EQ(hw.hiddenSums(), ref.sums);
    EXPECT_EQ(hw.simCounters().vectors(), twin.simCounters().vectors());
    EXPECT_EQ(hw.clampHits(), ref.clampHits);

    for (const UnitSite &s : hw.enumerateSites(SitePool::all())) {
        const RunningStat &a = hw.probe(s).amplitude;
        const RunningStat &b = twin.probe(s).amplitude;
        ASSERT_EQ(a.count(), b.count()) << s.describe();
        ASSERT_EQ(a.mean(), b.mean()) << s.describe();
        ASSERT_EQ(a.variance(), b.variance()) << s.describe();
        ASSERT_EQ(a.max(), b.max()) << s.describe();
    }
}

/**
 * First seed whose 4 latch defects make a fresh latch store a
 * nonzero value when written 0, so a padding latch leaves a live
 * synapse behind.
 */
uint64_t
nonzeroLatchSeed(BackendKind kind, const AcceleratorConfig &cfg,
                 MlpTopology topo, const UnitSite &latch)
{
    for (uint64_t seed = 1; seed < 500; ++seed) {
        auto b = makeBackend(kind, cfg, topo);
        Rng rng(seed);
        b->injectDefects(latch, 4, rng);
        if (b->bistLatchStore(latch.layer, latch.neuron, latch.index,
                              Fix16()).raw() != 0)
            return seed;
    }
    ADD_FAILURE() << "no seed makes the latch store a nonzero value";
    return 0;
}

TEST(Backend, LiveSynapseMasksMatchTheFullScan)
{
    // A 5-2-2 task on the 70-4-3 array: the logical corner is a few
    // synapses per row and the bias sits in the second mask word of
    // every hidden row.
    AcceleratorConfig cfg = twoWordArray();
    MlpTopology topo{5, 2, 2};
    // Hidden neuron 3 is padding; synapse 1 carries a real input.
    const UnitSite padLatch{UnitKind::WeightLatch, Layer::Hidden, 3, 1};
    // On the systolic grid this PE latch serves hidden synapse 2 of
    // neuron 1 (logical) and output synapse 2 of neuron 1 (padding,
    // fed by the 0.5 activation of padding hidden neuron 2).
    const UnitSite sharedLatch{UnitKind::WeightLatch, Layer::Hidden, 1, 2};
    const UnitSite defects[] = {
        {UnitKind::Multiplier, Layer::Hidden, 0, 40},
        {UnitKind::AdderStage, Layer::Hidden, 1, 65},
        {UnitKind::Multiplier, Layer::Output, 0, 3},
        {UnitKind::Activation, Layer::Hidden, 3, 0},
    };
    const UnitSite bypasses[] = {
        {UnitKind::Multiplier, Layer::Hidden, 2, 50},
        {UnitKind::AdderStage, Layer::Hidden, 3, 64},
        {UnitKind::AdderStage, Layer::Output, 1, 2},
        {UnitKind::WeightLatch, Layer::Hidden, 0, 9},
    };
    for (BackendKind kind : {BackendKind::Spatial, BackendKind::Systolic}) {
        SCOPED_TRACE(backendName(kind));
        uint64_t seed = nonzeroLatchSeed(kind, cfg, topo, padLatch);
        ASSERT_NE(seed, 0u);
        auto hw = makeBackend(kind, cfg, topo);
        auto twin = makeBackend(kind, cfg, topo);
        FullScan ref(*twin);
        // Apply one operation to the backend under test and the twin.
        auto both = [&](auto op) {
            op(*hw);
            op(*twin);
        };
        both([&](HardwareBackend &b) {
            Rng rng(seed);
            b.injectDefects(padLatch, 4, rng);
            b.injectDefects(sharedLatch, 3, rng);
            for (const UnitSite &s : defects)
                b.injectDefects(s, 3, rng);
            b.setActivationClamp(Layer::Output, Fix16::fromDouble(0.1),
                                 Fix16::fromDouble(0.9));
        });
        Rng data(seed + 100);
        DeepWeights w(topo);
        auto load = [&](const DeepWeights &weights) {
            hw->setWeights(weights);
            ref.setWeights(weights);
        };

        // Faulty latches, padding included.
        w.initRandom(data, 2.0);
        load(w);
        EXPECT_FALSE(hw->liveSynapses(Layer::Hidden, 3).empty())
            << "the faulty padding latch should store a nonzero value";
        expectMatchesFullScan(*hw, ref, *twin, data);

        // Logical weights that quantize to 0 clear their live bits.
        w.hid(0, 1) = 1e-5;
        w.hid(1, 4) = -2e-4;
        w.out(1, 0) = 3e-4;
        w.out(0, 2) = 0.0;
        load(w);
        expectMatchesFullScan(*hw, ref, *twin, data);

        // Raw row loads that leave nonzero padding behind, then a
        // logical load that must write it back to 0.
        if (auto *spatial = dynamic_cast<SpatialBackend *>(hw.get())) {
            auto rowOf = [&](int size, int pad_from) {
                std::vector<Fix16> row(static_cast<size_t>(size));
                for (int i = 0; i < size; ++i)
                    if (i >= pad_from)
                        row[static_cast<size_t>(i)] =
                            Fix16::fromDouble(data.nextDouble() - 0.5);
                return row;
            };
            std::vector<Fix16> hid0 = rowOf(cfg.inputs + 1, 5);
            std::vector<Fix16> hid2 = rowOf(cfg.inputs + 1, 0);
            std::vector<Fix16> out0 = rowOf(cfg.hidden + 1, 2);
            std::vector<Fix16> out2 = rowOf(cfg.hidden + 1, 0);
            spatial->loadPhysicalHiddenRow(0, hid0);
            spatial->loadPhysicalHiddenRow(2, hid2);
            spatial->loadPhysicalOutputRow(0, out0);
            spatial->loadPhysicalOutputRow(2, out2);
            // The reference writes the same rows through the twin's
            // latches and keeps the values they store.
            ref.loadRow(Layer::Hidden, 0, hid0);
            ref.loadRow(Layer::Hidden, 2, hid2);
            ref.loadRow(Layer::Output, 0, out0);
            ref.loadRow(Layer::Output, 2, out2);
            EXPECT_GT(hw->liveSynapses(Layer::Hidden, 2).size(), 60u);
            expectMatchesFullScan(*hw, ref, *twin, data);
            load(w);
            expectMatchesFullScan(*hw, ref, *twin, data);
        }

        // Bypasses on padding multipliers, adder stages and a latch,
        // then cleared again.
        both([&](HardwareBackend &b) {
            for (const UnitSite &s : bypasses)
                b.bypassUnit(s);
        });
        load(w);
        expectMatchesFullScan(*hw, ref, *twin, data);
        both([](HardwareBackend &b) { b.clearBypasses(); });
        load(w);
        expectMatchesFullScan(*hw, ref, *twin, data);

        // Without its defects the padding latch stores 0 again.
        both([](HardwareBackend &b) { b.clearDefects(); });
        w.initRandom(data, 2.0);
        load(w);
        EXPECT_TRUE(hw->liveSynapses(Layer::Hidden, 3).empty());
        expectMatchesFullScan(*hw, ref, *twin, data);
    }
}

} // namespace
} // namespace dtann
