/**
 * @file
 * Parallel campaign engine tests.
 *
 * The central contract: campaign output is bit-identical for any
 * worker-thread count, because every cell derives its randomness
 * from counter-based sub-streams (Rng::substream) instead of the
 * order-dependent split() chain.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <unistd.h>

#include "core/campaign.hh"
#include "service/journal.hh"
#include "service/plan.hh"
#include "service/runner.hh"

namespace dtann {
namespace {

Fig10Config
tinyFig10()
{
    Fig10Config cfg;
    cfg.tasks = {"iris"};
    cfg.defectCounts = {0, 4};
    cfg.repetitions = 2;
    cfg.folds = 2;
    cfg.rows = 90;
    cfg.epochScale = 0.4;
    cfg.retrainScale = 0.3;
    cfg.seed = 7;
    cfg.array.inputs = 16;
    cfg.array.hidden = 8;
    cfg.array.outputs = 3;
    return cfg;
}

void
expectIdentical(const std::vector<Fig10Curve> &a,
                const std::vector<Fig10Curve> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
        EXPECT_EQ(a[c].task, b[c].task);
        ASSERT_EQ(a[c].points.size(), b[c].points.size());
        for (size_t p = 0; p < a[c].points.size(); ++p) {
            EXPECT_EQ(a[c].points[p].defects, b[c].points[p].defects);
            // Bit-identical, not approximately equal.
            EXPECT_EQ(a[c].points[p].accuracy, b[c].points[p].accuracy);
            EXPECT_EQ(a[c].points[p].stddev, b[c].points[p].stddev);
        }
    }
}

TEST(EngineDeterminism, Fig10IdenticalForOneTwoAndEightThreads)
{
    Fig10Config cfg = tinyFig10();
    cfg.threads = 1;
    auto one = runFig10(cfg);
    cfg.threads = 2;
    auto two = runFig10(cfg);
    cfg.threads = 8;
    auto eight = runFig10(cfg);
    expectIdentical(one, two);
    expectIdentical(one, eight);
}

TEST(EngineDeterminism, Fig11IdenticalAcrossThreadCounts)
{
    Fig11Config cfg;
    cfg.tasks = {"iris"};
    cfg.repetitions = 2;
    cfg.folds = 2;
    cfg.rows = 90;
    cfg.epochScale = 0.4;
    cfg.retrainScale = 0.3;
    cfg.seed = 9;
    cfg.array.inputs = 16;
    cfg.array.hidden = 8;
    cfg.array.outputs = 3;

    cfg.threads = 1;
    auto serial = runFig11(cfg);
    cfg.threads = 8;
    auto parallel = runFig11(cfg);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t c = 0; c < serial.size(); ++c) {
        ASSERT_EQ(serial[c].samples.size(), parallel[c].samples.size());
        for (size_t s = 0; s < serial[c].samples.size(); ++s) {
            EXPECT_EQ(serial[c].samples[s].amplitude,
                      parallel[c].samples[s].amplitude);
            EXPECT_EQ(serial[c].samples[s].accuracy,
                      parallel[c].samples[s].accuracy);
            EXPECT_EQ(serial[c].samples[s].site,
                      parallel[c].samples[s].site);
        }
        EXPECT_EQ(serial[c].binAccuracy, parallel[c].binAccuracy);
    }
}

TEST(EngineDeterminism, Fig5IdenticalAcrossThreadCounts)
{
    Fig5Config cfg;
    cfg.op = Fig5Operator::Adder4;
    cfg.defects = 3;
    cfg.repetitions = 10;
    cfg.seed = 5;

    cfg.threads = 1;
    Fig5Result serial = runFig5({cfg}).front();
    cfg.threads = 4;
    Fig5Result parallel = runFig5({cfg}).front();

    EXPECT_EQ(serial.none.items(), parallel.none.items());
    EXPECT_EQ(serial.gate.items(), parallel.gate.items());
    EXPECT_EQ(serial.trans.items(), parallel.trans.items());
}

TEST(Engine, ProgressCallbackSeesEveryCell)
{
    Fig10Config cfg = tinyFig10();
    cfg.threads = 2;
    std::atomic<size_t> calls{0};
    size_t last_done = 0, reported_total = 0;
    bool monotone = true;
    cfg.onCellDone = [&](const CellReport &r) {
        // The engine serializes callbacks, so plain reads are safe.
        ++calls;
        monotone &= r.cellsDone == last_done + 1;
        last_done = r.cellsDone;
        reported_total = r.cellsTotal;
        EXPECT_EQ(r.task, "iris");
        EXPECT_GE(r.accuracy, 0.0);
        EXPECT_LE(r.accuracy, 1.0);
    };
    runFig10(cfg);

    // 1 defect-free cell + 2 repetitions of the 4-defect point.
    EXPECT_EQ(calls.load(), 3u);
    EXPECT_EQ(last_done, 3u);
    EXPECT_EQ(reported_total, 3u);
    EXPECT_TRUE(monotone) << "cellsDone must increment by 1 per report";
}

TEST(Engine, ThreadsFieldAndEnvironmentResolve)
{
    CampaignConfig cfg;
    cfg.threads = 3;
    CampaignEngine explicit_width(cfg);
    EXPECT_EQ(explicit_width.threads(), 3);

    setenv("DTANN_THREADS", "2", 1);
    cfg.threads = 0;
    CampaignEngine from_env(cfg);
    EXPECT_EQ(from_env.threads(), 2);
    unsetenv("DTANN_THREADS");
}

TEST(Engine, CampaignJsonExportsParse)
{
    Fig10Config cfg = tinyFig10();
    auto curves = runFig10(cfg);
    std::string json = toJson(curves);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"task\":\"iris\""), std::string::npos);
    EXPECT_NE(json.find("\"defects\":0"), std::string::npos);
    EXPECT_NE(json.find("\"accuracy\":"), std::string::npos);
}

std::string
journalPath(const std::string &stem)
{
    return testing::TempDir() + "dtann_claims_" + stem + "_" +
        std::to_string(::getpid()) + ".jnl";
}

std::vector<std::string>
journalLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::vector<std::string>
sortedLines(const std::string &path)
{
    std::vector<std::string> lines = journalLines(path);
    std::sort(lines.begin(), lines.end());
    return lines;
}

/** Run @p spec journaled to @p path; returns the envelope. */
std::string
runJournaled(ScenarioSpec spec, const std::string &path)
{
    ResultJournal journal(path, spec.journalEcho());
    spec.runConfig().journal = &journal;
    return runScenario(spec).json;
}

TEST(Engine, ClaimsHeaviestCellsFirst)
{
    // Table order is d0, d2 x2, d5 x2; the claims run d5, d2, d0.
    ScenarioSpec spec;
    spec.kind = spec.name = "fig10";
    spec.fig10 = tinyFig10();
    spec.fig10.defectCounts = {0, 2, 5};
    spec.fig10.threads = 0; // resolved from DTANN_THREADS below
    size_t cells = planSpec(spec).cells;
    ASSERT_EQ(cells, 5u);

    // Table-order reference: one single-cell shard per flat index,
    // run in index order against one journal, then replayed whole.
    setenv("DTANN_THREADS", "1", 1);
    std::string ref = journalPath("ref");
    std::remove(ref.c_str());
    for (size_t k = 0; k < cells; ++k) {
        ScenarioSpec shard = spec;
        shard.runConfig().shardCount = static_cast<int>(cells);
        shard.runConfig().shardIndex = static_cast<int>(k);
        runJournaled(shard, ref);
    }
    std::string expected = runJournaled(spec, ref);
    std::vector<std::string> refLines = sortedLines(ref);
    ASSERT_EQ(refLines.size(), cells + 1); // header + one per cell

    // At one thread the claims are the completion order.
    {
        ScenarioSpec serial = spec;
        std::vector<int> order;
        serial.runConfig().onCellDone = [&](const CellReport &r) {
            order.push_back(r.defects);
        };
        EXPECT_EQ(runScenario(serial).json, expected);
        EXPECT_EQ(order, (std::vector<int>{5, 5, 2, 2, 0}));
    }

    for (const char *threads : {"1", "3"}) {
        SCOPED_TRACE(std::string("DTANN_THREADS=") + threads);
        setenv("DTANN_THREADS", threads, 1);
        std::string path = journalPath(std::string("t") + threads);
        std::remove(path.c_str());
        EXPECT_EQ(runJournaled(spec, path), expected);
        EXPECT_EQ(sortedLines(path), refLines);

        // Kill after the first half of the journal, then resume.
        std::vector<std::string> lines = journalLines(path);
        {
            std::ofstream out(path, std::ios::trunc);
            for (size_t l = 0; l < lines.size() / 2 + 1; ++l)
                out << lines[l] << "\n";
        }
        EXPECT_EQ(runJournaled(spec, path), expected);
        EXPECT_EQ(sortedLines(path), refLines);
        std::remove(path.c_str());
    }

    // Two shards, merged and replayed.
    std::string shards[2] = {journalPath("s0"), journalPath("s1")};
    std::string merged = journalPath("merged");
    std::remove(merged.c_str());
    for (int k = 0; k < 2; ++k) {
        std::remove(shards[k].c_str());
        ScenarioSpec worker = spec;
        worker.runConfig().shardCount = 2;
        worker.runConfig().shardIndex = k;
        runJournaled(worker, shards[k]);
    }
    {
        ResultJournal journal(merged, spec.journalEcho());
        journal.absorb(shards[0]);
        journal.absorb(shards[1]);
    }
    EXPECT_EQ(runJournaled(spec, merged), expected);
    EXPECT_EQ(sortedLines(merged), refLines);

    unsetenv("DTANN_THREADS");
    for (const std::string &p : {ref, shards[0], shards[1], merged})
        std::remove(p.c_str());
}

} // namespace
} // namespace dtann
