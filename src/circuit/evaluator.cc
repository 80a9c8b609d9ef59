#include "circuit/evaluator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dtann {

namespace {

/** Relaxation sweep cap; oscillating faulty feedback stops here. */
constexpr int maxSweeps = 64;

} // namespace

Evaluator::Evaluator(const Netlist &netlist, FaultSet faults,
                     CleanFn clean)
    : nl(netlist), faultSet(std::move(faults)),
      cleanFn(std::move(clean)),
      netVal(netlist.numNets(), 0),
      haveFaults(!this->faultSet.empty()),
      needsRelaxation(netlist.hasFeedback())
{
    if (cleanFn && haveFaults)
        cone = computeFaultCone(nl, faultSet);
    size_t n = nl.numGates();
    if (haveFaults) {
        overridePtr.assign(n, nullptr);
        delayedFlag.assign(n, 0);
        delayStore.assign(n, 0);
        inputForce.assign(n, {-1, -1, -1, -1});
        outputForce.assign(n, -1);
        for (const auto &[gi, fn] : faultSet.overrides) {
            dtann_assert(gi < n, "override on unknown gate %u", gi);
            dtann_assert(fn.numInputs() == nl.gate(gi).arity(),
                         "override arity mismatch on gate %u", gi);
            overridePtr[gi] = &fn;
        }
        for (uint32_t gi : faultSet.delayed) {
            dtann_assert(gi < n, "delay fault on unknown gate %u", gi);
            delayedFlag[gi] = 1;
        }
        for (const StuckAtFault &f : faultSet.stuckAt) {
            dtann_assert(f.gate < n, "stuck-at on unknown gate %u", f.gate);
            if (f.input < 0) {
                outputForce[f.gate] = f.value ? 1 : 0;
            } else {
                dtann_assert(f.input < nl.gate(f.gate).arity(),
                             "stuck-at input index out of range");
                inputForce[f.gate][static_cast<size_t>(f.input)] =
                    f.value ? 1 : 0;
            }
        }
    }
}

void
Evaluator::reset()
{
    std::fill(netVal.begin(), netVal.end(), 0);
    std::fill(delayStore.begin(), delayStore.end(), 0);
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
    for (size_t i = 0; i < width; ++i)
        netVal[nl.inputs()[offset + i]] = (bits >> i) & 1;
    memoValid = false;
}

uint32_t
Evaluator::gateInputs(size_t gi) const
{
    const Gate &g = nl.gate(gi);
    uint32_t in = 0;
    int arity = g.arity();
    for (int i = 0; i < arity; ++i)
        in |= static_cast<uint32_t>(netVal[g.in[i]]) << i;
    if (haveFaults) {
        const auto &force = inputForce[gi];
        for (int i = 0; i < arity; ++i) {
            if (force[static_cast<size_t>(i)] >= 0) {
                in &= ~(1u << i);
                in |= static_cast<uint32_t>(
                    force[static_cast<size_t>(i)]) << i;
            }
        }
    }
    return in;
}

void
Evaluator::evaluate()
{
    runSweeps(nullptr);
    latchDelayed();
    memoValid = false;
}

void
Evaluator::runSweeps(const std::vector<uint32_t> *active)
{
    size_t n = active ? active->size() : nl.numGates();
    oscillated = false;
    // Feedback-free netlists settle in a single topological sweep
    // (builders emit gates in dependency order); MEM entries read
    // the previous evaluation's value, which is exactly what the
    // floating node held.
    int sweep_cap = needsRelaxation ? maxSweeps : 1;
    for (sweeps = 0; sweeps < sweep_cap; ++sweeps) {
        bool changed = false;
        gateEvalCount += n;
        for (size_t idx = 0; idx < n; ++idx) {
            size_t gi = active ? (*active)[idx] : idx;
            const Gate &g = nl.gate(gi);
            uint8_t v;
            if (haveFaults && delayedFlag[gi]) {
                // Output lags: drive the stored value this round.
                v = delayStore[gi];
            } else if (haveFaults && overridePtr[gi]) {
                LogicValue lv = overridePtr[gi]->eval(gateInputs(gi));
                if (lv == LogicValue::Mem)
                    continue; // Floating output: keep previous value.
                v = (lv == LogicValue::One) ? 1 : 0;
            } else {
                v = gateEval(g.kind, gateInputs(gi)) ? 1 : 0;
            }
            if (haveFaults && outputForce[gi] >= 0)
                v = static_cast<uint8_t>(outputForce[gi]);
            if (netVal[g.out] != v) {
                netVal[g.out] = v;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    if (needsRelaxation && sweeps == maxSweeps)
        oscillated = true;
}

bool
Evaluator::latchDelayed()
{
    // Latch new pending values of delayed gates for the next round.
    bool changed = false;
    if (haveFaults) {
        for (uint32_t gi : faultSet.delayed) {
            uint8_t pending;
            if (overridePtr[gi]) {
                LogicValue lv = overridePtr[gi]->eval(gateInputs(gi));
                if (lv == LogicValue::Mem)
                    continue; // Keep the old stored value.
                pending = (lv == LogicValue::One) ? 1 : 0;
            } else {
                pending =
                    gateEval(nl.gate(gi).kind, gateInputs(gi)) ? 1 : 0;
            }
            changed |= delayStore[gi] != pending;
            delayStore[gi] = pending;
        }
    }
    return changed;
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
        gateEvalCount +=
            cone.valid ? cone.activeGates.size() : nl.numGates();
        sweeps = 0;
        oscillated = false;
        return memoOut;
    }
    setInputBits(input_bits, nl.inputs().size());
    // Two call sites, so the full sweep keeps its null-specialized
    // inner loop.
    if (cone.valid)
        runSweeps(&cone.activeGates);
    else
        runSweeps(nullptr);
    bool stores_moved = latchDelayed();
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
