/**
 * @file
 * Allocation-count guard for the hardware-in-the-loop retraining row
 * step (forward through the backend, back-propagation, weight install
 * through the latches).
 *
 * The binary replaces the global operator new with a counting one.
 * One retraining epoch on each backend, for two task shapes, must
 * allocate the same small constant per row step: the Activations
 * record forward() returns (its layer list plus one vector per
 * layer) and nothing else. Any per-step copy of the weight stack,
 * of a padded physical row, or of a converted weight type adds an
 * allocation here and fails on any host, every time; no wall-clock
 * bound is involved.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>

#include "ann/trainer.hh"
#include "core/backend.hh"

namespace {

/** Counting is armed only around the measured training runs. */
bool counting = false;
uint64_t allocations = 0;
uint64_t allocatedBytes = 0;

} // namespace

// None of the three is inlined: GCC would otherwise see malloc() and
// free() at the call sites and warn that they pair with new/delete.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    if (counting) {
        ++allocations;
        allocatedBytes += size;
    }
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace dtann {
namespace {

/** Allocations and bytes of one measured region. */
struct AllocTally
{
    uint64_t count = 0;
    uint64_t bytes = 0;
};

template <class F>
AllocTally
tally(F &&f)
{
    allocations = allocatedBytes = 0;
    counting = true;
    f();
    counting = false;
    return {allocations, allocatedBytes};
}

/** @p rows training rows of @p topo's arity, labels cycling. */
Dataset
trainRows(MlpTopology topo, size_t rows)
{
    Dataset ds;
    ds.name = "row_step";
    ds.numAttributes = topo.inputs;
    ds.numClasses = topo.outputs;
    Rng rng(5);
    for (size_t r = 0; r < rows; ++r) {
        std::vector<double> row(static_cast<size_t>(topo.inputs));
        for (double &v : row)
            v = rng.nextDouble();
        ds.rows.push_back(row);
        ds.labels.push_back(static_cast<int>(r) % topo.outputs);
    }
    return ds;
}

/** The Activations record of one 2-layer row: the layer list plus
 *  the hidden and output vectors. */
constexpr uint64_t kRowStepAllocs = 3;

struct RowStepCase
{
    BackendKind backend;
    MlpTopology topo;
};

void
PrintTo(const RowStepCase &c, std::ostream *os)
{
    *os << backendName(c.backend) << "_" << c.topo.inputs << "_"
        << c.topo.hidden << "_" << c.topo.outputs;
}

class RowStepAllocs : public testing::TestWithParam<RowStepCase>
{
};

TEST_P(RowStepAllocs, ConstantPerStepAndFreeOfWeightCopies)
{
    const RowStepCase &c = GetParam();
    auto accel = makeBackend(c.backend, AcceleratorConfig(), c.topo);
    // One multiplier in the padding hosts defects (gate-level
    // simulated on every row) and one latch in the logical corner
    // (simulated on every weight install).
    Rng frng(41);
    accel->injectDefects({UnitKind::Multiplier, Layer::Hidden, 6, 50},
                         4, frng);
    accel->injectDefects({UnitKind::WeightLatch, Layer::Hidden, 1, 2},
                         4, frng);

    constexpr size_t kRows = 8;
    Dataset ds = trainRows(c.topo, kRows);
    DeepWeights init(c.topo);
    Rng wr(7);
    init.initRandom(wr, 1.2);
    Trainer one(Hyper{c.topo.hidden, 1, 0.1, 0.1});
    Trainer three(Hyper{c.topo.hidden, 3, 0.1, 0.1});

    // Warm-up: any lazily built simulation state exists afterwards.
    Rng rng(9);
    one.train(*accel, ds, rng, &init);

    // Per-train set-up (shadow and momentum stacks, buffers) cancels
    // out of the difference; what is left is 2 epochs of row steps.
    AllocTally a = tally([&] { one.train(*accel, ds, rng, &init); });
    AllocTally b = tally([&] { three.train(*accel, ds, rng, &init); });
    ASSERT_GE(b.count, a.count);
    uint64_t steps = 2 * kRows;
    EXPECT_EQ((b.count - a.count) % steps, 0u);
    EXPECT_EQ((b.count - a.count) / steps, kRowStepAllocs)
        << "allocations per retraining row step";

    // The bytes are the Activations record's, set by the layer
    // widths; a weight copy would add count() doubles per step.
    uint64_t record = 2 * sizeof(std::vector<double>) +
        static_cast<uint64_t>(c.topo.hidden + c.topo.outputs) *
            sizeof(double);
    EXPECT_EQ(b.bytes - a.bytes, steps * record)
        << "bytes per row step; a weight stack is "
        << init.count() * sizeof(double) << " bytes";
}

const RowStepCase kCases[] = {
    {BackendKind::Spatial, {13, 4, 3}},
    {BackendKind::Spatial, {30, 10, 2}},
    {BackendKind::Systolic, {13, 4, 3}},
    {BackendKind::Systolic, {30, 10, 2}},
};

INSTANTIATE_TEST_SUITE_P(
    Backends, RowStepAllocs, testing::ValuesIn(kCases),
    [](const testing::TestParamInfo<RowStepCase> &info) {
        std::ostringstream os;
        PrintTo(info.param, &os);
        return os.str();
    });

} // namespace
} // namespace dtann
