/**
 * @file
 * Tests for deep (multi-hidden-layer) networks on the unified
 * ForwardModel hierarchy and the staged Trainer.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ann/deep.hh"
#include "ann/mlp.hh"
#include "ann/sigmoid.hh"
#include "ann/trainer.hh"

namespace dtann {
namespace {

Dataset
xorDataset()
{
    Dataset ds;
    ds.name = "xor";
    ds.numAttributes = 2;
    ds.numClasses = 2;
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        double x = rng.nextDouble(), y = rng.nextDouble();
        ds.rows.push_back({x, y});
        ds.labels.push_back(((x > 0.5) != (y > 0.5)) ? 1 : 0);
    }
    return ds;
}

TEST(DeepTopology, Accessors)
{
    DeepTopology t{{4, 8, 6, 3}};
    EXPECT_EQ(t.inputs(), 4);
    EXPECT_EQ(t.outputs(), 3);
    EXPECT_EQ(t.stages(), 3u);
}

TEST(DeepWeights, CountAndIndexing)
{
    DeepTopology t{{4, 8, 6, 3}};
    DeepWeights w(t);
    EXPECT_EQ(w.count(), 8u * 5u + 6u * 9u + 3u * 7u);
    w.at(0, 7, 4) = 1.5; // bias of hidden-1 unit 7
    w.at(2, 2, 6) = -2.0;
    EXPECT_DOUBLE_EQ(w.at(0, 7, 4), 1.5);
    EXPECT_DOUBLE_EQ(w.at(2, 2, 6), -2.0);
    EXPECT_DOUBLE_EQ(w.at(1, 0, 0), 0.0);
}

TEST(FloatDeepMlp, SingleStageMatchesManual)
{
    DeepTopology t{{2, 2, 1}};
    DeepWeights w(t);
    w.at(0, 0, 0) = 1.0;
    w.at(0, 0, 1) = -1.0;
    w.at(0, 0, 2) = 0.5;
    w.at(0, 1, 0) = 2.0;
    w.at(0, 1, 2) = -1.0;
    w.at(1, 0, 0) = 1.5;
    w.at(1, 0, 1) = -0.5;
    w.at(1, 0, 2) = 0.25;
    FloatDeepMlp m(t);
    m.setWeights(w);
    Activations act = m.forward(std::vector<double>{0.3, 0.7});
    double h0 = logistic(0.3 - 0.7 + 0.5);
    double h1 = logistic(0.6 - 1.0);
    double o = logistic(1.5 * h0 - 0.5 * h1 + 0.25);
    ASSERT_EQ(act.layers.size(), 2u);
    EXPECT_NEAR(act.hidden()[0], h0, 1e-12);
    EXPECT_NEAR(act.hidden()[1], h1, 1e-12);
    EXPECT_NEAR(act.output()[0], o, 1e-12);
}

TEST(FloatDeepMlp, BatchMatchesScalar)
{
    DeepTopology t{{3, 5, 4, 2}};
    FloatDeepMlp m(t);
    DeepWeights w(t);
    Rng rng(21);
    w.initRandom(rng, 1.0);
    m.setWeights(w);

    std::vector<std::vector<double>> rows;
    for (int r = 0; r < 17; ++r) {
        std::vector<double> in(3);
        for (double &v : in)
            v = rng.nextDouble();
        rows.push_back(in);
    }
    std::vector<Activations> batch = m.forwardBatch(rows);
    ASSERT_EQ(batch.size(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
        Activations ref = m.forward(rows[r]);
        EXPECT_EQ(batch[r].layers, ref.layers) << "row " << r;
    }
}

TEST(DeepTrainer, TwoHiddenLayersLearnXor)
{
    // Deep sigmoid stacks are plateau-prone from tiny inits (the
    // classic pre-2006 training difficulty the paper's Deep
    // Networks reference is about); a slightly wider init escapes
    // it.
    Dataset ds = xorDataset();
    DeepTopology t{{2, 6, 4, 2}};
    FloatDeepMlp model(t);
    Rng rng(3);
    DeepWeights init(t);
    init.initRandom(rng, 1.5);
    Trainer trainer({4, 400, 0.5, 0.5});
    trainer.train(model, ds, rng, &init);
    EXPECT_GT(evalAccuracy(model, ds), 0.9);
}

TEST(DeepTrainer, DeeperStackStillTrains)
{
    Dataset ds = xorDataset();
    DeepTopology t{{2, 8, 6, 4, 2}};
    FloatDeepMlp model(t);
    Rng rng(9);
    DeepWeights init(t);
    init.initRandom(rng, 1.5);
    Trainer trainer({4, 600, 0.4, 0.5});
    trainer.train(model, ds, rng, &init);
    EXPECT_GT(evalAccuracy(model, ds), 0.85);
}

TEST(DeepTrainer, WarmStartKeepsAccuracy)
{
    Dataset ds = xorDataset();
    DeepTopology t{{2, 6, 4, 2}};
    FloatDeepMlp model(t);
    Rng rng(5);
    DeepWeights w =
        Trainer({4, 400, 0.5, 0.5}).train(model, ds, rng);
    double before = evalAccuracy(model, ds);
    EXPECT_GT(before, 0.9);
    Trainer({4, 10, 0.5, 0.5}).train(model, ds, rng, &w);
    EXPECT_GT(evalAccuracy(model, ds), before - 0.1);
}

TEST(DeepTrainer, MatchesTwoLayerSemantics)
{
    // A {in, h, out} deep topology is an ordinary 2-layer MLP;
    // its forward must match FloatMlp exactly for equal weights.
    DeepTopology t{{3, 4, 2}};
    DeepWeights dw(t);
    Rng rng(11);
    dw.initRandom(rng, 1.0);
    FloatDeepMlp deep(t);
    deep.setWeights(dw);

    // The same stack installs into the 2-layer model unchanged.
    FloatMlp flat(MlpTopology{3, 4, 2});
    flat.setWeights(dw);

    std::vector<double> in{0.2, 0.5, 0.9};
    Activations deep_acts = deep.forward(in);
    Activations flat_acts = flat.forward(in);
    for (size_t j = 0; j < 4; ++j)
        EXPECT_NEAR(deep_acts.hidden()[j], flat_acts.hidden()[j],
                    1e-12);
    for (size_t k = 0; k < 2; ++k)
        EXPECT_NEAR(deep_acts.output()[k], flat_acts.output()[k],
                    1e-12);
}

TEST(DeepTrainer, StagedTrainerMatchesTwoLayerWrapper)
{
    // Training the 2-layer FloatMlp must be bit-identical to training
    // FloatDeepMlp on the same 2-stage stack: same RNG draw order,
    // same FP expression shapes.
    Dataset ds = xorDataset();
    MlpTopology topo{2, 6, 2};
    Hyper h{6, 40, 0.5, 0.5};

    FloatMlp flat(topo);
    Rng r1(31);
    DeepWeights flat_w = Trainer(h).train(flat, ds, r1);

    FloatDeepMlp deep(toLayerTopology(topo));
    Rng r2(31);
    DeepWeights deep_w = Trainer(h).train(deep, ds, r2);

    ASSERT_EQ(flat_w.topology(), deep_w.topology());
    for (size_t s = 0; s < 2; ++s) {
        std::span<const double> a = flat_w.stage(s), b = deep_w.stage(s);
        ASSERT_EQ(a.size(), b.size());
        for (size_t k = 0; k < a.size(); ++k)
            EXPECT_EQ(a[k], b[k]) << "stage " << s << " weight " << k;
    }
}

} // namespace
} // namespace dtann
