#include "circuit/evaluator.hh"

#include <algorithm>
#include <array>
#include <iterator>

#include "common/logging.hh"

namespace dtann {

namespace {

/** Relaxation sweep cap; oscillating faulty feedback stops here. */
constexpr int maxSweeps = 64;

/** Defect-free truth table of @p kind, indexed by packed inputs. */
uint16_t
cleanTable(GateKind kind)
{
    static const auto tables = [] {
        std::array<uint16_t, static_cast<size_t>(GateKind::NumKinds)> t{};
        for (size_t k = 0; k < t.size(); ++k) {
            auto kind = static_cast<GateKind>(k);
            for (uint32_t in = 0; in < (1u << gateArity(kind)); ++in)
                if (gateEval(kind, in))
                    t[k] |= static_cast<uint16_t>(1u << in);
        }
        return t;
    }();
    return tables[static_cast<size_t>(kind)];
}

/**
 * Run @p ops once, in order, over @p val (Gauss-Seidel: each op
 * sees the values earlier ops wrote).
 * @return true when any written slot changed
 */
bool
runOps(const std::vector<GateOp> &ops, uint8_t *val)
{
    bool changed = false;
    for (const GateOp &op : ops) {
        uint32_t in = val[op.in[0]] | val[op.in[1]] << 1 |
            val[op.in[2]] << 2 | val[op.in[3]] << 3;
        in = (in & op.keep) | op.force;
        uint8_t old = val[op.out];
        uint8_t v = (op.mem >> in & 1) ? old
                                       : static_cast<uint8_t>(op.one >> in & 1);
        changed |= v != old;
        val[op.out] = v;
    }
    return changed;
}

} // namespace

Evaluator::Evaluator(const Netlist &netlist, FaultSet faults,
                     CleanFn clean)
    : nl(netlist), faultSet(std::move(faults)),
      cleanFn(std::move(clean)),
      netVal(netlist.numNets() + faultSet.delayed.size() + 1, 0)
{
    size_t n = nl.numGates();
    for (const auto &[gi, fn] : faultSet.overrides) {
        dtann_assert(gi < n, "override on unknown gate %u", gi);
        dtann_assert(fn.numInputs() == nl.gate(gi).arity(),
                     "override arity mismatch on gate %u", gi);
    }
    for (uint32_t gi : faultSet.delayed)
        dtann_assert(gi < n, "delay fault on unknown gate %u", gi);
    for (const StuckAtFault &f : faultSet.stuckAt) {
        dtann_assert(f.gate < n, "stuck-at on unknown gate %u", f.gate);
        dtann_assert(f.input < nl.gate(f.gate).arity(),
                     "stuck-at input index out of range");
    }
}

const FaultCone &
Evaluator::analysis() const
{
    if (!analyzed) {
        needsRelaxation = nl.hasFeedback();
        if (cleanFn && !faultSet.empty())
            cone = computeFaultCone(nl, faultSet);
        analyzed = true;
    }
    return cone;
}

GateOp
Evaluator::cleanOp(uint32_t gi, uint32_t out) const
{
    const Gate &g = nl.gate(gi);
    GateOp op{{zeroSlot(), zeroSlot(), zeroSlot(), zeroSlot()},
              out, cleanTable(g.kind), 0, 0xf, 0};
    for (int i = 0; i < g.arity(); ++i)
        op.in[i] = g.in[i];
    return op;
}

GateOp
Evaluator::functionOp(uint32_t gi, uint32_t out) const
{
    const Gate &g = nl.gate(gi);
    GateOp op = cleanOp(gi, out);
    if (auto it = faultSet.overrides.find(gi);
        it != faultSet.overrides.end()) {
        op.one = 0;
        for (uint32_t in = 0; in < (1u << g.arity()); ++in) {
            LogicValue lv = it->second.eval(in);
            if (lv == LogicValue::Mem)
                op.mem |= static_cast<uint16_t>(1u << in);
            else if (lv == LogicValue::One)
                op.one |= static_cast<uint16_t>(1u << in);
        }
    }
    for (const StuckAtFault &f : faultSet.stuckAt) {
        if (f.gate != gi || f.input < 0)
            continue;
        auto bit = static_cast<uint8_t>(1u << f.input);
        op.keep &= static_cast<uint8_t>(~bit);
        op.force = static_cast<uint8_t>((op.force & ~bit) |
                                        (f.value ? bit : 0));
    }
    return op;
}

GateOp
Evaluator::sweepOp(uint32_t gi) const
{
    const Gate &g = nl.gate(gi);
    auto it = faultSet.delayed.find(gi);
    // A delayed output lags: its op buffers this round's store onto
    // the net, and the input stuck-ats and the override act in the
    // latch step instead.
    auto store = static_cast<uint32_t>(
        nl.numNets() + std::distance(faultSet.delayed.begin(), it));
    GateOp op = it == faultSet.delayed.end()
        ? functionOp(gi, g.out)
        : GateOp{{store, zeroSlot(), zeroSlot(), zeroSlot()},
                 g.out, 0b10, 0, 0xf, 0};
    // An output stuck-at drives every combination that does not
    // float: a MEM entry keeps the net as it is.
    for (const StuckAtFault &f : faultSet.stuckAt)
        if (f.gate == gi && f.input < 0)
            op.one = f.value ? static_cast<uint16_t>(~op.mem) : 0;
    return op;
}

std::vector<GateOp>
Evaluator::program(const std::vector<uint32_t> *gates) const
{
    size_t n = gates ? gates->size() : nl.numGates();
    std::vector<GateOp> ops;
    ops.reserve(n);
    for (size_t idx = 0; idx < n; ++idx) {
        uint32_t gi = gates ? (*gates)[idx] : static_cast<uint32_t>(idx);
        ops.push_back(cleanOp(gi, nl.gate(gi).out));
    }
    // Every faulty gate is in the program (the cone seeds from
    // them), so patch each one's op in place.
    auto patch = [&](uint32_t gi) {
        size_t pos = gi;
        if (gates)
            pos = static_cast<size_t>(
                std::lower_bound(gates->begin(), gates->end(), gi) -
                gates->begin());
        ops[pos] = sweepOp(gi);
    };
    for (const auto &[gi, fn] : faultSet.overrides)
        patch(gi);
    for (uint32_t gi : faultSet.delayed)
        patch(gi);
    for (const StuckAtFault &f : faultSet.stuckAt)
        patch(f.gate);
    return ops;
}

void
Evaluator::compile()
{
    if (compiled)
        return;
    if (analysis().valid)
        coneOps = program(&cone.activeGates);
    // Latch: each delayed gate's function of its (stuck-at adjusted)
    // real inputs, into its store; MEM keeps the store and no
    // output stuck-at applies.
    uint32_t store = static_cast<uint32_t>(nl.numNets());
    for (uint32_t gi : faultSet.delayed)
        latchOps.push_back(functionOp(gi, store++));
    compiled = true;
}

const std::vector<GateOp> &
Evaluator::fullProgram()
{
    if (fullOps.size() != nl.numGates())
        fullOps = program(nullptr);
    return fullOps;
}

void
Evaluator::reset()
{
    // Also zeroes the delay stores, which live in netVal.
    std::fill(netVal.begin(), netVal.end(), 0);
    memoValid = false;
}

void
Evaluator::setInput(size_t index, bool value)
{
    dtann_assert(index < nl.inputs().size(), "input index out of range");
    netVal[nl.inputs()[index]] = value ? 1 : 0;
    memoValid = false;
}

void
Evaluator::setInputBits(uint64_t bits, size_t count)
{
    setInputRange(0, count, bits);
}

void
Evaluator::setInputRange(size_t offset, size_t width, uint64_t bits)
{
    dtann_assert(offset + width <= nl.inputs().size(),
                 "input range out of bounds");
    dtann_assert(width <= 64, "at most 64 bits per write");
    for (size_t i = 0; i < width; ++i)
        netVal[nl.inputs()[offset + i]] = (bits >> i) & 1;
    memoValid = false;
}

void
Evaluator::evaluate()
{
    compile();
    runSweeps(fullProgram());
    runOps(latchOps, netVal.data());
    memoValid = false;
}

void
Evaluator::runSweeps(const std::vector<GateOp> &ops)
{
    oscillated = false;
    // Feedback-free netlists settle in a single topological sweep
    // (builders emit gates in dependency order); MEM entries read
    // the previous evaluation's value, which is exactly what the
    // floating node held.
    int sweep_cap = needsRelaxation ? maxSweeps : 1;
    for (sweeps = 0; sweeps < sweep_cap; ++sweeps) {
        gateEvalCount += ops.size();
        if (!runOps(ops, netVal.data()))
            break;
    }
    if (needsRelaxation && sweeps == maxSweeps)
        oscillated = true;
}

bool
Evaluator::output(size_t index) const
{
    dtann_assert(index < nl.outputs().size(), "output index out of range");
    return netVal[nl.outputs()[index]] != 0;
}

uint64_t
Evaluator::outputBits(size_t count) const
{
    return outputRange(0, count);
}

uint64_t
Evaluator::outputRange(size_t offset, size_t width) const
{
    dtann_assert(offset + width <= nl.outputs().size(),
                 "output range out of bounds");
    dtann_assert(width <= 64, "at most 64 bits per read");
    uint64_t bits = 0;
    for (size_t i = 0; i < width; ++i)
        bits |= static_cast<uint64_t>(netVal[nl.outputs()[offset + i]]) << i;
    return bits;
}

uint64_t
Evaluator::evaluateBits(uint64_t input_bits)
{
    if (memoValid && input_bits == memoIn) {
        // The last call ran from this very state under this input
        // and moved nothing, so a full evaluation would run one
        // sweep that changes nothing and return the same bits.
        gateEvalCount += cone.valid ? coneOps.size() : fullOps.size();
        sweeps = 0;
        oscillated = false;
        return memoOut;
    }
    setInputBits(input_bits, nl.inputs().size());
    compile();
    runSweeps(cone.valid ? coneOps : fullProgram());
    bool stores_moved = runOps(latchOps, netVal.data());
    size_t n_out = std::min<size_t>(nl.outputs().size(), 64);
    uint64_t bits = outputBits(n_out);
    if (cone.valid) {
        // Pruned path: only the fault cone (plus its fan-in support)
        // is simulated; every output outside the cone is
        // bit-identical to the clean operator, so those bits come
        // from the native model. The cone is only valid for
        // feedback-free netlists, where all fault semantics (MEM
        // retention, delayed outputs, stuck-ats) depend solely on
        // the active gates' nets, which persist across calls exactly
        // as in the full sweep.
        bits = (cleanFn(input_bits) & ~cone.outputMask) |
            (bits & cone.outputMask);
        // Keep granular output() reads consistent: write the clean
        // bits back into the output nets the pruned sweep never
        // touched.
        for (size_t o = 0; o < n_out; ++o) {
            if (!(cone.outputMask >> o & 1))
                netVal[nl.outputs()[o]] = (bits >> o) & 1;
        }
    }
    memoValid = sweeps == 0 && !stores_moved;
    memoIn = input_bits;
    memoOut = bits;
    return bits;
}

} // namespace dtann
