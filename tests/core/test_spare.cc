/**
 * @file
 * Tests for spare (redundant) output neurons: the output-group voter
 * over blind spare copies, remap-style single rows and replicate-style
 * vote groups.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>

#include "ann/trainer.hh"
#include "core/spare.hh"
#include "data/synth_uci.hh"

namespace dtann {
namespace {

using Groups = std::vector<std::vector<int>>;

AcceleratorConfig
smallArray()
{
    AcceleratorConfig cfg;
    cfg.inputs = 12;
    cfg.hidden = 4;
    cfg.outputs = 6; // room for 3 logical outputs + 3 spares
    return cfg;
}

std::vector<double>
randomRow(int width, Rng &rng)
{
    std::vector<double> in(static_cast<size_t>(width));
    for (double &v : in)
        v = rng.nextDouble();
    return in;
}

TEST(Spare, TopologyDoubling)
{
    MlpTopology logical{12, 4, 3};
    MlpTopology phys = sparedTopology(logical);
    EXPECT_EQ(phys.outputs, 6);
    EXPECT_EQ(phys.inputs, 12);
    EXPECT_EQ(phys.hidden, 4);
    EXPECT_EQ(spareGroups(logical), (Groups{{0, 3}, {1, 4}, {2, 5}}));
    EXPECT_EQ(spareGroups(logical, 3),
              (Groups{{0, 3, 6}, {1, 4, 7}, {2, 5, 8}}));
}

TEST(Spare, CleanForwardEqualsUnsparedNetwork)
{
    // On a defect-free array every group plan computes exactly what
    // the plain network does: blind copies, rows moved onto spares
    // (remap), and partial vote groups (replicate).
    MlpTopology logical{12, 4, 3};
    struct Plan
    {
        Groups groups;
        int spares;
    };
    for (const Plan &plan : {Plan{spareGroups(logical), 3},
                             Plan{{{3}, {1}, {5}}, 2},
                             Plan{{{0, 3}, {1, 4, 5}, {2}}, 3}}) {
        Accelerator spared_accel(smallArray(), sparedTopology(logical));
        OutputGroupMlp spared(spared_accel, logical, plan.groups);
        EXPECT_EQ(spared.spareRowsUsed(), plan.spares);
        Accelerator plain_accel(smallArray(), logical);

        DeepWeights w(logical);
        Rng rng(3);
        w.initRandom(rng, 1.5);
        spared.setWeights(w);
        plain_accel.setWeights(w);
        for (int t = 0; t < 30; ++t) {
            std::vector<double> in = randomRow(12, rng);
            Activations a = spared.forward(in);
            Activations b = plain_accel.forward(in);
            ASSERT_EQ(a.output().size(), b.output().size());
            for (size_t k = 0; k < a.output().size(); ++k)
                EXPECT_DOUBLE_EQ(a.output()[k], b.output()[k]);
            EXPECT_EQ(a.hidden(), b.hidden());
        }
    }
}

TEST(Spare, HalvesImpactOfOutputActivationFault)
{
    // Stuck activation on one copy of a 2-row group — a blind
    // spare's primary row, or the suspect row of a replicate pair:
    // the averager limits the deviation to half, while the unspared
    // network takes it in full.
    MlpTopology logical{12, 4, 3};
    struct Plan
    {
        Groups groups;
        int output; // the logical output whose group holds the fault
    };
    for (const Plan &plan : {Plan{spareGroups(logical), 0},
                             Plan{{{0}, {1, 3}, {2}}, 1}}) {
        Accelerator spared_accel(smallArray(), sparedTopology(logical));
        OutputGroupMlp spared(spared_accel, logical, plan.groups);
        Accelerator plain_accel(smallArray(), logical);

        DeepWeights w(logical);
        Rng rng(5);
        w.initRandom(rng, 1.5);
        spared.setWeights(w);
        plain_accel.setWeights(w);

        // Same severe defect (saturated with faults) at each array's
        // output activation.
        UnitSite site{UnitKind::Activation, Layer::Output, plan.output,
                      0};
        Rng inj1(99), inj2(99);
        spared_accel.injectDefects(site, 30, inj1);
        plain_accel.injectDefects(site, 30, inj2);

        // Compare faulty vs a clean twin of the same array.
        Accelerator clean_accel(smallArray(), logical);
        clean_accel.setWeights(w);
        size_t k = static_cast<size_t>(plan.output);
        double max_dev_spared = 0.0, max_dev_plain = 0.0;
        for (int t = 0; t < 60; ++t) {
            std::vector<double> in = randomRow(12, rng);
            double clean = clean_accel.forward(in).output()[k];
            max_dev_spared =
                std::max(max_dev_spared,
                         std::abs(spared.forward(in).output()[k] - clean));
            max_dev_plain = std::max(
                max_dev_plain,
                std::abs(plain_accel.forward(in).output()[k] - clean));
        }
        EXPECT_GT(max_dev_plain, 0.0) << "fault never excited";
        EXPECT_LE(max_dev_spared, 0.5 * max_dev_plain + 1e-9);
    }
}

TEST(Spare, MedianOfThreeRejectsSingleBrokenCopyExactly)
{
    // With three copies — blind, or a diagnosed row voted with two
    // recruited spares — the median output is bit-identical to the
    // clean network no matter how badly ONE copy misbehaves.
    AcceleratorConfig cfg = smallArray();
    cfg.outputs = 9; // 3 logical x 3 copies
    MlpTopology logical{12, 4, 3};
    for (const Groups &groups :
         {spareGroups(logical, 3), Groups{{0}, {1, 3, 4}, {2}}}) {
        Accelerator accel(cfg, sparedTopology(logical, 3));
        OutputGroupMlp spared(accel, logical, groups);
        Accelerator clean(cfg, logical);

        DeepWeights w(logical);
        Rng rng(7);
        w.initRandom(rng, 1.5);
        spared.setWeights(w);
        clean.setWeights(w);

        // Wreck the primary copy of logical output 1.
        UnitSite site{UnitKind::Activation, Layer::Output, 1, 0};
        Rng inj(31);
        accel.injectDefects(site, 30, inj);

        for (int t = 0; t < 60; ++t) {
            std::vector<double> in = randomRow(12, rng);
            Activations a = spared.forward(in);
            Activations b = clean.forward(in);
            for (size_t k = 0; k < a.output().size(); ++k)
                EXPECT_DOUBLE_EQ(a.output()[k], b.output()[k])
                    << "output " << k << " row " << t;
        }
    }
}

TEST(Spare, RequiresEnoughPhysicalOutputs)
{
    AcceleratorConfig cfg = smallArray();
    cfg.outputs = 4; // too few for 3 + 3
    MlpTopology logical{12, 4, 3};
    EXPECT_EXIT(
        {
            Accelerator accel(cfg, sparedTopology(logical));
            OutputGroupMlp spared(accel, logical, spareGroups(logical));
        },
        ::testing::KilledBySignal(SIGABRT), "fit");
}

TEST(Spare, TrainableEndToEnd)
{
    // Training through the voter converges for blind spares and for
    // a mixed replicate plan (a median-of-3, a pair, a singleton).
    Rng gen(17);
    Dataset ds = makeSyntheticTask(uciTask("iris"), gen, 120);
    AcceleratorConfig cfg;
    cfg.inputs = 16;
    cfg.hidden = 6;
    cfg.outputs = 6;
    MlpTopology logical{4, 6, 3};
    for (const Groups &groups :
         {spareGroups(logical), Groups{{0, 3, 4}, {1, 5}, {2}}}) {
        Accelerator accel(cfg, sparedTopology(logical));
        OutputGroupMlp spared(accel, logical, groups);
        Trainer trainer({6, 60, 0.2, 0.1});
        Rng rng(5);
        trainer.train(spared, ds, rng);
        EXPECT_GT(evalAccuracy(spared, ds), 0.8);
    }
}

TEST(OutputGroupMlp, VoteAgreesWithMedianVoteRule)
{
    // The voter path *is* medianVote: recompute the vote by hand
    // from the raw physical activations and require exact agreement.
    MlpTopology logical{12, 4, 3};
    Accelerator accel(smallArray(), sparedTopology(logical));
    Groups groups = {{0, 3, 4}, {1, 5}, {2}};
    OutputGroupMlp voted(accel, logical, groups);

    DeepWeights w(logical);
    Rng rng(13);
    w.initRandom(rng, 1.5);
    Rng inj(43);
    accel.injectDefects({UnitKind::Activation, Layer::Output, 0, 0}, 20,
                        inj);
    voted.setWeights(w);

    for (int t = 0; t < 20; ++t) {
        std::vector<double> in = randomRow(12, rng);
        Activations act = voted.forward(in);
        Activations raw = accel.forward(in);
        for (size_t k = 0; k < groups.size(); ++k) {
            std::vector<double> copies;
            for (int row : groups[k])
                copies.push_back(raw.output()[static_cast<size_t>(row)]);
            EXPECT_DOUBLE_EQ(act.output()[k], medianVote(copies))
                << "output " << k << " trial " << t;
        }
    }
}

TEST(OutputGroupMlp, RejectsMalformedGroups)
{
    MlpTopology logical{12, 4, 3};
    Accelerator accel(smallArray(), sparedTopology(logical));
    EXPECT_EXIT(OutputGroupMlp(accel, logical, {{0}, {1}}),
                ::testing::KilledBySignal(SIGABRT), "arity");
    EXPECT_EXIT(OutputGroupMlp(accel, logical, {{0}, {}, {2}}),
                ::testing::KilledBySignal(SIGABRT), "empty");
    EXPECT_EXIT(OutputGroupMlp(accel, logical, {{0, 3}, {1, 3}, {2}}),
                ::testing::KilledBySignal(SIGABRT), "share");
    EXPECT_EXIT(OutputGroupMlp(accel, logical, {{0, 6}, {1}, {2}}),
                ::testing::KilledBySignal(SIGABRT), "range");
    EXPECT_EXIT(OutputGroupMlp(accel, {12, 3, 3}, {{0}, {1}, {2}}),
                ::testing::KilledBySignal(SIGABRT), "hidden");
}

} // namespace
} // namespace dtann
