/**
 * @file
 * Tests for fully fixed-point (on-line scenario) training.
 */

#include <gtest/gtest.h>

#include "ann/fixed_mlp.hh"
#include "ann/fixed_trainer.hh"
#include "data/synth_uci.hh"

namespace dtann {
namespace {

Dataset
blobs2d(uint64_t seed)
{
    Dataset ds;
    ds.name = "blobs";
    ds.numAttributes = 2;
    ds.numClasses = 2;
    Rng rng(seed);
    for (int i = 0; i < 160; ++i) {
        int label = i % 2;
        double cx = label ? 0.75 : 0.25;
        ds.rows.push_back(
            {std::clamp(rng.nextGauss(cx, 0.12), 0.0, 1.0),
             std::clamp(rng.nextGauss(cx, 0.12), 0.0, 1.0)});
        ds.labels.push_back(label);
    }
    return ds;
}

TEST(FixedTrainer, LearnsSeparableBlobs)
{
    Dataset ds = blobs2d(5);
    MlpTopology topo{2, 4, 2};
    FixedMlp model(topo);
    // On-line fixed-point training needs a larger learning rate so
    // updates survive Q6.10 quantization.
    FixedTrainer trainer({4, 60, 0.5, 0.0});
    Rng rng(7);
    trainer.train(model, ds, rng);
    EXPECT_GT(evalAccuracy(model, ds), 0.9);
}

TEST(FixedTrainer, LearnsSyntheticIris)
{
    Rng gen(11);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 150);
    MlpTopology topo{4, 8, 3};
    FixedMlp model(topo);
    FixedTrainer trainer({8, 80, 0.5, 0.0});
    Rng rng(5);
    trainer.train(model, ds, rng);
    EXPECT_GT(evalAccuracy(model, ds), 0.8);
}

TEST(FixedTrainer, WeightsAreQuantized)
{
    Dataset ds = blobs2d(9);
    MlpTopology topo{2, 3, 2};
    FixedMlp model(topo);
    FixedTrainer trainer({3, 10, 0.5, 0.0});
    Rng rng(3);
    DeepWeights w = trainer.train(model, ds, rng);
    // Every weight is an exact multiple of 1/1024.
    for (int j = 0; j < topo.hidden; ++j)
        for (int i = 0; i <= topo.inputs; ++i) {
            double scaled = w.hid(j, i) * Fix16::scale;
            EXPECT_DOUBLE_EQ(scaled, std::nearbyint(scaled));
        }
}

TEST(FixedTrainer, ZeroQuantizedLearningRateStalls)
{
    // With lr quantizing to exactly 0 raw, every update is zero
    // and weights must not move at all.
    Dataset ds = blobs2d(13);
    MlpTopology topo{2, 3, 2};
    FixedMlp model(topo);
    Rng rng(3);
    DeepWeights init(topo);
    init.initRandom(rng, 0.3);
    FixedTrainer trainer({3, 3, 0.0001, 0.0});
    DeepWeights out = trainer.train(model, ds, rng, &init);
    for (int j = 0; j < topo.hidden; ++j)
        for (int i = 0; i <= topo.inputs; ++i) {
            // The trainer quantizes the warm-start weights once;
            // beyond that they must not move.
            double quantized =
                Fix16::fromDouble(init.hid(j, i)).toDouble();
            EXPECT_DOUBLE_EQ(out.hid(j, i), quantized)
                << "weight moved despite zero-quantized updates";
        }
}

TEST(FixedTrainer, TruncationBiasAtOneLsbLearningRate)
{
    // A genuine Q6.10 artifact: truncating multiplies floor toward
    // minus infinity, so a 1-LSB learning rate turns every tiny
    // negative gradient into a full -1 LSB step while positive
    // ones vanish -- weights drift downward instead of stalling.
    // This is why the on-line scenario needs healthy learning
    // rates (see Draghici / Holi & Hwang on limited-precision
    // training).
    Dataset ds = blobs2d(13);
    MlpTopology topo{2, 3, 2};
    FixedMlp model(topo);
    Rng rng(3);
    DeepWeights init(topo);
    init.initRandom(rng, 0.3);
    FixedTrainer trainer({3, 3, 1.0 / 1024.0, 0.0});
    DeepWeights out = trainer.train(model, ds, rng, &init);
    double drift = 0.0;
    for (int j = 0; j < topo.hidden; ++j)
        for (int i = 0; i <= topo.inputs; ++i)
            drift += out.hid(j, i) - init.hid(j, i);
    EXPECT_LT(drift, 0.0) << "floor-truncation bias should pull "
                             "weights down";
}

TEST(FixedTrainer, WarmStartRetainsAccuracy)
{
    Dataset ds = blobs2d(17);
    MlpTopology topo{2, 4, 2};
    FixedMlp model(topo);
    Rng rng(5);
    FixedTrainer trainer({4, 60, 0.5, 0.0});
    DeepWeights w = trainer.train(model, ds, rng);
    double before = evalAccuracy(model, ds);
    FixedTrainer touchup({4, 5, 0.5, 0.0});
    touchup.train(model, ds, rng, &w);
    EXPECT_GE(evalAccuracy(model, ds), before - 0.1);
}

} // namespace
} // namespace dtann
