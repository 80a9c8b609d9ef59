/**
 * @file
 * Map-driven spare output rows: the remap and replicate planners,
 * the spare-row count both strategies report, and a spatial
 * mitigation campaign over noop/remap/replicate pinned byte for byte
 * to an export recorded before the two strategies shared one voter
 * (tests/fixtures/spare_rows_mitigation.*).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "mitigate/spare_rows.hh"
#include "service/runner.hh"

namespace dtann {
namespace {

using Groups = std::vector<std::vector<int>>;

/** 16x8x6 array mapping a 4-6-3 task: 3 spare output rows. */
AcceleratorConfig
smallArray()
{
    AcceleratorConfig cfg;
    cfg.inputs = 16;
    cfg.hidden = 8;
    cfg.outputs = 6;
    return cfg;
}

MlpTopology
logicalTopo()
{
    return {4, 6, 3};
}

/** A map with every listed output row's activation suspect. */
DefectMap
faultyRows(std::initializer_list<int> rows)
{
    DefectMap map;
    for (int n : rows)
        map.markSuspect({UnitKind::Activation, Layer::Output, n, 0});
    return map;
}

TEST(PlanOutputRemap, CleanMapIsIdentity)
{
    EXPECT_EQ(planOutputRemap(DefectMap(), logicalTopo(), smallArray()),
              (Groups{{0}, {1}, {2}}));
}

TEST(PlanOutputRemap, FaultyRowMovesToLowestCleanSpare)
{
    DefectMap map;
    map.markSuspect({UnitKind::AdderStage, Layer::Output, 1, 0});
    EXPECT_EQ(planOutputRemap(map, logicalTopo(), smallArray()),
              (Groups{{0}, {3}, {2}}));

    // A faulty spare is skipped in favour of the next clean one.
    map.markSuspect({UnitKind::Activation, Layer::Output, 3, 0});
    EXPECT_EQ(planOutputRemap(map, logicalTopo(), smallArray()),
              (Groups{{0}, {4}, {2}}));

    // Hidden-layer suspects do not trigger output remapping.
    DefectMap hidden_only;
    hidden_only.markSuspect({UnitKind::Multiplier, Layer::Hidden, 1, 2});
    EXPECT_EQ(planOutputRemap(hidden_only, logicalTopo(), smallArray()),
              (Groups{{0}, {1}, {2}}));
}

TEST(PlanOutputRemap, DegradesGracefullyWhenSparesExhausted)
{
    // Every physical output row faulty: no clean spare exists, so
    // faulty rows keep their position.
    EXPECT_EQ(planOutputRemap(faultyRows({0, 1, 2, 3, 4, 5}),
                              logicalTopo(), smallArray()),
              (Groups{{0}, {1}, {2}}));
}

TEST(PlanOutputReplication, CleanMapLeavesSingletons)
{
    EXPECT_EQ(
        planOutputReplication(DefectMap(), logicalTopo(), smallArray()),
        (Groups{{0}, {1}, {2}}));
}

TEST(PlanOutputReplication, FaultyRowRecruitsTwoCleanSpares)
{
    DefectMap map = faultyRows({1});
    EXPECT_EQ(planOutputReplication(map, logicalTopo(), smallArray()),
              (Groups{{0}, {1, 3, 4}, {2}}));

    // A faulty spare is skipped in favour of the next clean one.
    map.markSuspect({UnitKind::AdderStage, Layer::Output, 3, 0});
    EXPECT_EQ(planOutputReplication(map, logicalTopo(), smallArray()),
              (Groups{{0}, {1, 4, 5}, {2}}));
}

TEST(PlanOutputReplication, SparesAreSharedAndRunOut)
{
    // Row 0 takes the first two spares (median-of-3), row 1 gets the
    // last one (pair average), each spare used exactly once.
    EXPECT_EQ(planOutputReplication(faultyRows({0, 1}), logicalTopo(),
                                    smallArray()),
              (Groups{{0, 3, 4}, {1, 5}, {2}}));

    // Every row faulty: no clean spare left, graceful degrade to
    // retrain-only (all singletons).
    EXPECT_EQ(planOutputReplication(faultyRows({0, 1, 2, 3, 4, 5}),
                                    logicalTopo(), smallArray()),
              (Groups{{0}, {1}, {2}}));
}

TEST(PlanOutputReplication, HiddenSuspectsDoNotReplicate)
{
    DefectMap map;
    map.markSuspect({UnitKind::Multiplier, Layer::Hidden, 1, 2});
    EXPECT_EQ(planOutputReplication(map, logicalTopo(), smallArray()),
              (Groups{{0}, {1}, {2}}));
}

TEST(SpareRows, SpareRowsUsedCountsMovedAndRecruitedRows)
{
    // Over every subset of faulty physical rows: a replicate group
    // starts with its own row and every further row is a recruited
    // spare; a remap group is one row, a spare exactly when the
    // output moved. OutputGroupMlp::spareRowsUsed() counts both.
    AcceleratorConfig cfg = smallArray();
    MlpTopology logical = logicalTopo();
    Accelerator accel(cfg, spareRowTopology(logical, cfg));
    for (int bits = 0; bits < 1 << cfg.outputs; ++bits) {
        DefectMap map;
        for (int n = 0; n < cfg.outputs; ++n)
            if (bits >> n & 1)
                map.markSuspect(
                    {UnitKind::Activation, Layer::Output, n, 0});

        Groups replicated = planOutputReplication(map, logical, cfg);
        int recruited = 0;
        for (size_t k = 0; k < replicated.size(); ++k) {
            ASSERT_FALSE(replicated[k].empty());
            EXPECT_EQ(replicated[k].front(), static_cast<int>(k))
                << "group must start with its own row";
            recruited += static_cast<int>(replicated[k].size()) - 1;
        }
        EXPECT_EQ(OutputGroupMlp(accel, logical, replicated)
                      .spareRowsUsed(),
                  recruited);

        Groups remapped = planOutputRemap(map, logical, cfg);
        int moved = 0;
        for (size_t k = 0; k < remapped.size(); ++k) {
            ASSERT_EQ(remapped[k].size(), 1u);
            moved += remapped[k].front() != static_cast<int>(k);
        }
        EXPECT_EQ(OutputGroupMlp(accel, logical, remapped).spareRowsUsed(),
                  moved);
    }
}

std::string
readFixture(const std::string &name)
{
    std::ifstream in(std::string(DTANN_FIXTURE_DIR) + "/" + name);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
        text.pop_back();
    return text;
}

/** The envelope from the top-level seed on: seed, sim counters,
 *  results (everything but the config echo). */
std::string
envelopeTail(const std::string &envelope)
{
    size_t pos = envelope.find("},\"seed\":");
    EXPECT_NE(pos, std::string::npos) << envelope.substr(0, 120);
    return pos == std::string::npos ? envelope : envelope.substr(pos);
}

TEST(SpareRows, FreshRunMatchesParentExport)
{
    // noop/remap/replicate with output-critical defects, so the
    // planners move and replicate diagnosed rows: the shared voter
    // reproduces the export of the separate remap and replicate
    // models bit for bit.
    ScenarioSpec spec =
        ScenarioSpec::parse(readFixture("spare_rows_mitigation.json"));
    EXPECT_EQ(envelopeTail(runScenario(spec).json),
              envelopeTail(
                  readFixture("spare_rows_mitigation.result.json")));
}

} // namespace
} // namespace dtann
