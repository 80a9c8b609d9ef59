/**
 * @file
 * Tests for DeepWeights, the one weight type: its flat stage
 * storage, the 2-layer views onto it, its range asserts, and its
 * install into the weight latches of both backends.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/backend.hh"

namespace dtann {
namespace {

TEST(DeepWeights, TwoLayerViewsAliasStageStorage)
{
    MlpTopology topo{5, 3, 2};
    DeepWeights w(topo);
    std::span<double> hid = w.stage(0), out = w.stage(1);
    ASSERT_EQ(hid.size(), 3u * 6u);
    ASSERT_EQ(out.size(), 2u * 4u);
    // One contiguous buffer: stage 1 starts where stage 0 ends.
    EXPECT_EQ(out.data(), hid.data() + hid.size());
    EXPECT_EQ(hid.size() + out.size(), w.count());
    for (int j = 0; j < topo.hidden; ++j)
        for (int i = 0; i <= topo.inputs; ++i) {
            size_t k = static_cast<size_t>(j * (topo.inputs + 1) + i);
            EXPECT_EQ(&w.hid(j, i), &hid[k]);
            EXPECT_EQ(&w.hid(j, i), &w.at(0, j, i));
            EXPECT_EQ(w.index(0, j, i), k);
        }
    for (int k = 0; k < topo.outputs; ++k)
        for (int j = 0; j <= topo.hidden; ++j) {
            size_t n = static_cast<size_t>(k * (topo.hidden + 1) + j);
            EXPECT_EQ(&w.out(k, j), &out[n]);
            EXPECT_EQ(&w.out(k, j), &w.at(1, k, j));
            EXPECT_EQ(w.index(1, k, j), hid.size() + n);
        }
    // Writes through a view land in the stage and vice versa.
    w.hid(2, 5) = 0.75;
    EXPECT_EQ(hid[2 * 6 + 5], 0.75);
    out[3] = -1.5;
    EXPECT_EQ(w.out(0, 3), -1.5);
}

TEST(DeepWeightsDeathTest, OutOfRangeAccessAsserts)
{
    DeepWeights w(MlpTopology{4, 3, 2});
    EXPECT_DEATH(w.at(2, 0, 0), "stage out of range");
    EXPECT_DEATH(w.at(0, 3, 0), "out of range");
    EXPECT_DEATH(w.at(0, 0, 5), "out of range");
    EXPECT_DEATH(w.at(1, 0, -1), "out of range");
    EXPECT_DEATH(w.hid(-1, 0), "out of range");
    EXPECT_DEATH(w.out(2, 0), "out of range");
    EXPECT_DEATH(w.stage(2), "stage out of range");
    const DeepWeights &c = w;
    EXPECT_DEATH(c.out(0, 4), "out of range");
}

/**
 * Installing a stack built from either topology constructor gives
 * identical latches: the same live synapses on every row and the
 * same outputs and hidden sums on every probe row, on both backends,
 * with a faulty latch in the logical corner and one in the padding.
 */
TEST(DeepWeights, EitherConstructorInstallsIdenticalLatches)
{
    MlpTopology topo{13, 4, 3};
    DeepWeights flat(topo), deep(DeepTopology{{13, 4, 3}});
    EXPECT_EQ(flat.topology(), deep.topology());
    EXPECT_EQ(flat.topology(), topo);
    Rng a(17), b(17);
    flat.initRandom(a, 1.5);
    deep.initRandom(b, 1.5);
    for (size_t s = 0; s < 2; ++s)
        EXPECT_TRUE(std::ranges::equal(flat.stage(s), deep.stage(s)));

    std::vector<std::vector<double>> probes(6);
    Rng prng(23);
    for (auto &row : probes) {
        row.resize(static_cast<size_t>(topo.inputs));
        for (double &v : row)
            v = prng.nextDouble();
    }

    for (BackendKind kind : {BackendKind::Spatial, BackendKind::Systolic}) {
        SCOPED_TRACE(backendName(kind));
        AcceleratorConfig cfg;
        auto x = makeBackend(kind, cfg, topo);
        auto y = makeBackend(kind, cfg, topo);
        for (HardwareBackend *hw : {x.get(), y.get()}) {
            Rng frng(31);
            hw->injectDefects({UnitKind::WeightLatch, Layer::Hidden, 1, 2},
                              4, frng);
            hw->injectDefects(
                {UnitKind::WeightLatch, Layer::Output, 5, 7}, 4, frng);
        }
        x->setWeights(flat);
        y->setWeights(deep);
        for (Layer pass : {Layer::Hidden, Layer::Output}) {
            int rows = pass == Layer::Hidden ? cfg.hidden : cfg.outputs;
            for (int n = 0; n < rows; ++n)
                EXPECT_EQ(x->liveSynapses(pass, n),
                          y->liveSynapses(pass, n))
                    << "row " << n;
        }
        for (const auto &row : probes) {
            Activations ax = x->forward(row), ay = y->forward(row);
            EXPECT_EQ(ax.layers, ay.layers);
            ASSERT_EQ(x->hiddenSums().size(), y->hiddenSums().size());
            for (size_t j = 0; j < x->hiddenSums().size(); ++j)
                EXPECT_EQ(x->hiddenSums()[j].raw(),
                          y->hiddenSums()[j].raw());
        }
        EXPECT_EQ(x->simCounters().toJson(), y->simCounters().toJson());
    }
}

} // namespace
} // namespace dtann
