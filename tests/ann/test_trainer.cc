/**
 * @file
 * Training, cross-validation and fixed-vs-float accuracy tests.
 */

#include <gtest/gtest.h>

#include <csignal>

#include "ann/crossval.hh"
#include "ann/fixed_mlp.hh"
#include "ann/trainer.hh"
#include "data/synth_uci.hh"

namespace dtann {
namespace {

/** XOR-like 2D dataset: the classic non-linearly-separable check. */
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

TEST(Trainer, LearnsXor)
{
    Dataset ds = xorDataset();
    MlpTopology topo{2, 6, 2};
    FloatMlp model(topo);
    Trainer trainer({6, 400, 0.5, 0.5});
    Rng rng(3);
    trainer.train(model, ds, rng);
    EXPECT_GT(evalAccuracy(model, ds), 0.95);
}

TEST(Trainer, WarmStartImprovesOverColdShortRun)
{
    Dataset ds = xorDataset();
    MlpTopology topo{2, 6, 2};
    FloatMlp model(topo);
    Rng rng(3);
    // Long run to converge.
    DeepWeights trained =
        Trainer({6, 400, 0.5, 0.5}).train(model, ds, rng);
    // Short retraining from the converged weights keeps accuracy.
    Trainer short_trainer({6, 10, 0.5, 0.5});
    short_trainer.train(model, ds, rng, &trained);
    double warm = evalAccuracy(model, ds);
    EXPECT_GT(warm, 0.9);
}

TEST(Trainer, LearnsSyntheticIris)
{
    Rng gen(11);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 150);
    MlpTopology topo{4, 8, 3};
    FloatMlp model(topo);
    Trainer trainer({8, 100, 0.2, 0.1});
    Rng rng(5);
    trainer.train(model, ds, rng);
    EXPECT_GT(evalAccuracy(model, ds), 0.85);
}

TEST(Trainer, AccuracyOfUntrainedNetIsChanceLike)
{
    Rng gen(11);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 150);
    MlpTopology topo{4, 8, 3};
    FloatMlp model(topo);
    DeepWeights w(topo);
    Rng rng(5);
    w.initRandom(rng);
    model.setWeights(w);
    EXPECT_LT(evalAccuracy(model, ds), 0.7);
}

TEST(Trainer, MseDecreasesWithTraining)
{
    Dataset ds = xorDataset();
    MlpTopology topo{2, 6, 2};
    FloatMlp model(topo);
    Rng rng(3);
    DeepWeights w(topo);
    w.initRandom(rng);
    model.setWeights(w);
    double before = evalMse(model, ds);
    Trainer({6, 200, 0.5, 0.5}).train(model, ds, rng, &w);
    double after = evalMse(model, ds);
    EXPECT_LT(after, before);
}

TEST(Trainer, PruneMaskFreezesSynapsesToZero)
{
    // Fault-aware pruning support: masked synapses must stay exactly
    // zero through init, every update, and the returned weights —
    // the trainer's shadow state may never diverge from a hardware
    // forward path that zeroed those connections.
    Dataset ds = xorDataset();
    MlpTopology topo{2, 6, 2};
    FloatMlp model(topo);
    Trainer trainer({6, 100, 0.5, 0.5});
    trainer.setPruneMask({{0, 2, 1},
                          {0, 3, 2}, // hidden neuron 3's bias column
                          {1, 0, 4}});
    EXPECT_EQ(trainer.pruneMask().size(), 3u);
    Rng rng(3);
    DeepWeights w = trainer.train(model, ds, rng);
    EXPECT_EQ(w.hid(2, 1), 0.0);
    EXPECT_EQ(w.hid(3, 2), 0.0);
    EXPECT_EQ(w.out(0, 4), 0.0);
    // The rest of the network trains normally around the holes.
    EXPECT_NE(w.hid(2, 0), 0.0);
    EXPECT_GT(evalAccuracy(model, ds), 0.85);
}

TEST(Trainer, PruneMaskZeroesWarmStartWeights)
{
    // A warm start whose pruned synapses carry nonzero values (the
    // usual case: baseline weights trained before the fault) must be
    // cleaned before the first forward pass.
    Dataset ds = xorDataset();
    MlpTopology topo{2, 6, 2};
    FloatMlp model(topo);
    Rng rng(3);
    DeepWeights init = Trainer({6, 60, 0.5, 0.5}).train(model, ds, rng);
    ASSERT_NE(init.out(1, 2), 0.0);

    Trainer pruned({6, 1, 0.5, 0.5});
    pruned.setPruneMask({{1, 1, 2}});
    DeepWeights w = pruned.train(model, ds, rng, &init);
    EXPECT_EQ(w.out(1, 2), 0.0);
}

TEST(Trainer, PruneMaskRejectsSynapseOutsideTopology)
{
    // The mask is resolved against the model's layer stack before
    // the first step; an entry past a layer's width (the bias column
    // is the last valid input) is a caller bug.
    Dataset ds = xorDataset();
    FloatMlp model({2, 6, 2});
    Trainer pruned({6, 1, 0.5, 0.5});
    pruned.setPruneMask({{1, 0, 7}});
    Rng rng(3);
    EXPECT_EXIT(pruned.train(model, ds, rng),
                ::testing::KilledBySignal(SIGABRT), "out of range");
}

TEST(Trainer, ArgmaxBasics)
{
    std::vector<double> v{0.1, 0.9, 0.3};
    EXPECT_EQ(argmax(v), 1);
    std::vector<double> first{0.5, 0.5};
    EXPECT_EQ(argmax(first), 0);
}

TEST(FixedMlp, MatchesFloatAccuracyAfterQuantization)
{
    // The paper's claim: the 16-bit Q6.10 design achieves the same
    // accuracy as floating point on these problems.
    Rng gen(13);
    Dataset ds = makeSyntheticTask(uciTask("wine"), gen, 178);
    MlpTopology topo{13, 4, 3};
    FloatMlp fmodel(topo);
    Trainer trainer({4, 200, 0.2, 0.1});
    Rng rng(5);
    DeepWeights w = trainer.train(fmodel, ds, rng);

    FixedMlp qmodel(topo);
    qmodel.setWeights(w);
    double facc = evalAccuracy(fmodel, ds);
    double qacc = evalAccuracy(qmodel, ds);
    EXPECT_GT(facc, 0.85);
    EXPECT_NEAR(qacc, facc, 0.05);
}

TEST(FixedMlp, TrainingThroughFixedForwardWorks)
{
    // Companion-core training with the hardware forward path.
    Rng gen(17);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 150);
    MlpTopology topo{4, 8, 3};
    FixedMlp model(topo);
    Trainer trainer({8, 100, 0.2, 0.1});
    Rng rng(5);
    trainer.train(model, ds, rng);
    EXPECT_GT(evalAccuracy(model, ds), 0.8);
}

TEST(CrossVal, TenFoldOnIris)
{
    Rng gen(19);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 150);
    MlpTopology topo{4, 8, 3};
    FloatMlp model(topo);
    Rng rng(5);
    CrossValResult cv =
        crossValidate(model, ds, 10, Trainer({8, 60, 0.2, 0.1}), rng);
    EXPECT_EQ(cv.folds, 10);
    EXPECT_GT(cv.meanAccuracy, 0.75);
    EXPECT_LT(cv.stddev, 0.25);
}

TEST(CrossVal, FoldsSeeDisjointTestData)
{
    // Cross-validated accuracy must be <= resubstitution accuracy
    // in expectation; just assert it runs and is bounded.
    Rng gen(23);
    Dataset ds = makeSyntheticTask(uciTask("wine"), gen, 100);
    MlpTopology topo{13, 4, 3};
    FloatMlp model(topo);
    Rng rng(5);
    CrossValResult cv =
        crossValidate(model, ds, 5, Trainer({4, 40, 0.2, 0.1}), rng);
    EXPECT_GE(cv.meanAccuracy, 0.0);
    EXPECT_LE(cv.meanAccuracy, 1.0);
}

} // namespace
} // namespace dtann
