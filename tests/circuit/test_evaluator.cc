/**
 * @file
 * Unit tests for netlist evaluation, including faults and state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ann/sigmoid.hh"
#include "circuit/evaluator.hh"
#include "common/rng.hh"
#include "rtl/adder.hh"
#include "rtl/clean_model.hh"
#include "rtl/fault_inject.hh"
#include "rtl/latch.hh"
#include "rtl/multiplier.hh"
#include "rtl/sigmoid_unit.hh"

namespace dtann {
namespace {

/** Two-input XOR from four NANDs, for exercising multi-level logic. */
Netlist
xorNetlist()
{
    Netlist nl;
    NetId a = nl.addNet();
    NetId b = nl.addNet();
    nl.markInput(a);
    nl.markInput(b);
    NetId n1 = nl.addGate(GateKind::Nand2, {a, b});
    NetId n2 = nl.addGate(GateKind::Nand2, {a, n1});
    NetId n3 = nl.addGate(GateKind::Nand2, {b, n1});
    NetId out = nl.addGate(GateKind::Nand2, {n2, n3});
    nl.markOutput(out);
    return nl;
}

TEST(Evaluator, CombinationalXor)
{
    Netlist nl = xorNetlist();
    Evaluator ev(nl);
    for (uint64_t in = 0; in < 4; ++in) {
        uint64_t out = ev.evaluateBits(in);
        EXPECT_EQ(out, ((in & 1) ^ (in >> 1)) & 1) << "in=" << in;
    }
}

TEST(Evaluator, ConvergesInOneSweepForTopologicalOrder)
{
    Netlist nl = xorNetlist();
    Evaluator ev(nl);
    ev.evaluateBits(0b01);
    // One sweep to settle plus one to confirm stability.
    EXPECT_LE(ev.lastSweeps(), 2);
    EXPECT_FALSE(ev.lastOscillated());
}

TEST(Evaluator, InputRangeAddressing)
{
    Netlist nl = xorNetlist();
    Evaluator ev(nl);
    ev.setInputRange(0, 1, 1);
    ev.setInputRange(1, 1, 0);
    ev.evaluate();
    EXPECT_TRUE(ev.output(0));
    EXPECT_EQ(ev.outputRange(0, 1), 1u);
}

TEST(Evaluator, StuckAtInputFault)
{
    Netlist nl = xorNetlist();
    // Force input 0 of the first NAND (net a) to 1: gate 0 computes
    // NAND(1, b) = !b, turning XOR(a,b) into XOR-with-a-corrupted
    // first term.
    FaultSet faults;
    faults.stuckAt.push_back({0, 0, true});
    Evaluator ev(nl, std::move(faults));
    // a=0, b=1: clean XOR = 1. With the fault, n1 = NAND(1,1) = 0,
    // n2 = NAND(0,0) = 1, n3 = NAND(1,0) = 1, out = NAND(1,1) = 0.
    EXPECT_EQ(ev.evaluateBits(0b10), 0u);
}

TEST(Evaluator, StuckAtOutputFault)
{
    Netlist nl = xorNetlist();
    // Stick the final NAND output at 1.
    FaultSet faults;
    faults.stuckAt.push_back({3, -1, true});
    Evaluator ev(nl, std::move(faults));
    for (uint64_t in = 0; in < 4; ++in)
        EXPECT_EQ(ev.evaluateBits(in), 1u);
}

TEST(Evaluator, OverrideFunctionReplacesGate)
{
    Netlist nl = xorNetlist();
    // Replace the final NAND with a NOR truth table.
    FaultSet faults;
    faults.overrides[3] = GateFunction::fromGateKind(GateKind::Nor2);
    Evaluator ev(nl, std::move(faults));
    // a=1,b=1: n1=0, n2=NAND(1,0)=1, n3=1; NOR(1,1)=0 (same as
    // clean XOR here). a=0,b=0: n1=1, n2=1, n3=1; NOR(1,1)=0 ==
    // clean. a=1,b=0: n1=1, n2=0, n3=1; NOR(0,1)=0, clean XOR=1.
    EXPECT_EQ(ev.evaluateBits(0b01), 0u);
}

TEST(Evaluator, MemHoldsPreviousValue)
{
    // Single inverter whose faulty function floats when input is 1:
    // in=0 -> 1, in=1 -> MEM.
    Netlist nl;
    NetId a = nl.addNet();
    nl.markInput(a);
    NetId out = nl.addGate(GateKind::Not, {a});
    nl.markOutput(out);

    FaultSet faults;
    faults.overrides[0] = GateFunction(1, 0b01, 0b10);
    Evaluator ev(nl, std::move(faults));
    EXPECT_EQ(ev.evaluateBits(0), 1u);
    // Floats: retains 1.
    EXPECT_EQ(ev.evaluateBits(1), 1u);
    ev.reset();
    // After reset the floating node reads its cleared value 0.
    EXPECT_EQ(ev.evaluateBits(1), 0u);
}

TEST(Evaluator, DelayedGateLagsOneEvaluation)
{
    Netlist nl;
    NetId a = nl.addNet();
    nl.markInput(a);
    NetId out = nl.addGate(GateKind::Not, {a});
    nl.markOutput(out);

    FaultSet faults;
    faults.delayed.insert(0);
    Evaluator ev(nl, std::move(faults));
    // First evaluation outputs the reset value (0), stores !0... the
    // input of this round: in=0 -> pending=1.
    EXPECT_EQ(ev.evaluateBits(0), 0u);
    // Second round outputs the pending 1 regardless of input.
    EXPECT_EQ(ev.evaluateBits(1), 1u);
    // Pending from in=1 is 0.
    EXPECT_EQ(ev.evaluateBits(0), 0u);
    EXPECT_EQ(ev.evaluateBits(0), 1u);
}

TEST(Evaluator, CrossCoupledLatchConverges)
{
    // Gated SR: S~ = NAND(d, en), R~ = NAND(!d, en), cross-coupled
    // output pair.
    Netlist nl;
    NetId d = nl.addNet();
    NetId en = nl.addNet();
    nl.markInput(d);
    nl.markInput(en);
    NetId dn = nl.addGate(GateKind::Not, {d});
    NetId sn = nl.addGate(GateKind::Nand2, {d, en});
    NetId rn = nl.addGate(GateKind::Nand2, {dn, en});
    NetId qb = nl.addNet();
    NetId q = nl.addGate(GateKind::Nand2, {sn, qb});
    nl.addGateOnto(GateKind::Nand2, {rn, q}, qb);
    nl.markOutput(q);

    Evaluator ev(nl);
    // Write 1.
    ev.setInput(0, true);
    ev.setInput(1, true);
    ev.evaluate();
    EXPECT_TRUE(ev.output(0));
    EXPECT_FALSE(ev.lastOscillated());
    // Close the latch, change D: Q must hold.
    ev.setInput(1, false);
    ev.evaluate();
    ev.setInput(0, false);
    ev.evaluate();
    EXPECT_TRUE(ev.output(0));
    // Write 0.
    ev.setInput(1, true);
    ev.evaluate();
    EXPECT_FALSE(ev.output(0));
}

TEST(Evaluator, RingOscillatorHitsSweepCap)
{
    // A 3-inverter ring never settles; the evaluator must stop at
    // the sweep cap and report oscillation rather than hang.
    Netlist nl;
    NetId loop = nl.addNet();
    NetId x = nl.addGate(GateKind::Not, {loop});
    NetId y = nl.addGate(GateKind::Not, {x});
    nl.addGateOnto(GateKind::Not, {y}, loop);
    nl.markOutput(loop);
    Evaluator ev(nl);
    ev.evaluate();
    EXPECT_TRUE(ev.lastOscillated());
}

TEST(Evaluator, FaultSetMergeCombinesAllKinds)
{
    FaultSet a, b;
    a.overrides[1] = GateFunction::fromGateKind(GateKind::Nor2);
    a.stuckAt.push_back({0, 0, true});
    b.overrides[2] = GateFunction::fromGateKind(GateKind::Nand2);
    b.delayed.insert(3);
    b.stuckAt.push_back({4, -1, false});
    a.merge(b);
    EXPECT_EQ(a.overrides.size(), 2u);
    EXPECT_EQ(a.stuckAt.size(), 2u);
    EXPECT_EQ(a.delayed.count(3), 1u);
    EXPECT_FALSE(a.empty());
    FaultSet empty;
    EXPECT_TRUE(empty.empty());
}

TEST(Evaluator, StatePersistsAcrossEvaluateCalls)
{
    Netlist nl;
    NetId a = nl.addNet();
    nl.markInput(a);
    NetId out = nl.addGate(GateKind::Not, {a});
    nl.markOutput(out);
    FaultSet faults;
    faults.overrides[0] = GateFunction(1, 0b01, 0b10); // MEM on in=1
    Evaluator ev(nl, std::move(faults));
    ev.evaluateBits(0);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(ev.evaluateBits(1), 1u) << "iteration " << i;
}

/**
 * @p count random gate-level faults of every stateful kind: MEM
 * entries on top of a gate's clean truth table, delayed outputs,
 * and stuck-at inputs/outputs.
 */
FaultSet
randomStatefulFaults(const Netlist &nl, Rng &rng, int count)
{
    FaultSet f;
    for (int k = 0; k < count; ++k) {
        uint32_t gi = static_cast<uint32_t>(rng.nextUint(nl.numGates()));
        const Gate &g = nl.gate(gi);
        switch (rng.nextUint(3)) {
          case 0: {
            GateFunction clean = GateFunction::fromGateKind(g.kind);
            uint32_t value = 0, mem = 0;
            for (uint32_t c = 0; c < (1u << g.arity()); ++c) {
                if (clean.eval(c) == LogicValue::One)
                    value |= 1u << c;
                if (rng.nextBool(0.3))
                    mem |= 1u << c;
            }
            f.overrides[gi] = GateFunction(g.arity(), value, mem);
            break;
          }
          case 1:
            f.delayed.insert(gi);
            break;
          default:
            f.stuckAt.push_back(
                {gi,
                 static_cast<int8_t>(
                     static_cast<int>(rng.nextUint(
                         static_cast<uint64_t>(g.arity()) + 1)) - 1),
                 rng.nextBool()});
            break;
        }
    }
    return f;
}

/**
 * An input stream mixing long runs of one vector (often all-zero,
 * like an unused synapse's operands), period-2 pairs that differ in
 * bit @p toggle (a latch's open/close cycle) and fresh vectors.
 */
std::vector<uint64_t>
memoStream(Rng &rng, size_t inputs, int toggle, size_t len)
{
    auto fresh = [&] {
        if (rng.nextBool(0.3))
            return uint64_t{0};
        return rng.nextUint(uint64_t{1} << inputs);
    };
    std::vector<uint64_t> s;
    while (s.size() < len) {
        uint64_t v = fresh();
        switch (rng.nextUint(3)) {
          case 0:
            s.insert(s.end(), 2 + rng.nextUint(12), v);
            break;
          case 1:
            for (uint64_t p = 2 + rng.nextUint(6); p > 0; --p) {
                s.push_back(v | (uint64_t{1} << toggle));
                s.push_back(v & ~(uint64_t{1} << toggle));
            }
            break;
          default:
            s.push_back(v);
            s.push_back(fresh());
            break;
        }
    }
    return s;
}

/**
 * Drive @p memo through evaluateBits() and @p twin through
 * setInputBits + evaluate + outputBits (which never memoizes),
 * interleaving reset() and granular setInputBits/evaluate on both,
 * and stray setInputBits() pokes on @p memo that its next
 * evaluateBits() must overwrite.
 * Full-sweep evaluators must agree on every output, sweep count,
 * oscillation flag and gate-eval total; a cone-pruned @p memo must
 * agree on outputs and add exactly its active-gate count per call.
 */
void
expectMemoMatchesTwin(Evaluator &memo, Evaluator &twin,
                      const std::vector<uint64_t> &stream, Rng &rng,
                      const std::string &what)
{
    const Netlist &nl = memo.netlist();
    size_t nin = nl.inputs().size();
    size_t nout = std::min<size_t>(nl.outputs().size(), 64);
    bool cone = memo.conePruned();
    for (size_t t = 0; t < stream.size(); ++t) {
        uint64_t roll = rng.nextUint(40);
        if (roll == 0) {
            memo.reset();
            twin.reset();
        }
        twin.setInputBits(stream[t], nin);
        twin.evaluate();
        if (roll == 1) {
            memo.setInputBits(stream[t], nin);
            memo.evaluate();
            ASSERT_EQ(memo.outputBits(nout), twin.outputBits(nout))
                << what << " granular step " << t;
            continue;
        }
        if (roll == 2)
            memo.setInputBits(~stream[t], nin);
        uint64_t before = memo.gateEvals();
        ASSERT_EQ(memo.evaluateBits(stream[t]), twin.outputBits(nout))
            << what << " step " << t;
        if (cone) {
            ASSERT_EQ(memo.gateEvals() - before,
                      memo.faultCone().activeGates.size())
                << what << " step " << t;
        } else {
            ASSERT_EQ(memo.lastSweeps(), twin.lastSweeps())
                << what << " step " << t;
            ASSERT_EQ(memo.lastOscillated(), twin.lastOscillated())
                << what << " step " << t;
            ASSERT_EQ(memo.gateEvals(), twin.gateEvals())
                << what << " step " << t;
        }
        if (roll == 2) {
            // A granular sweep now reads whatever inputs the poke
            // left behind.
            memo.evaluate();
            twin.evaluate();
            ASSERT_EQ(memo.outputBits(nout), twin.outputBits(nout))
                << what << " poked step " << t;
        }
    }
}

/** A 3-stage ring that oscillates while its enable input is 1. */
Netlist
gatedRingNetlist()
{
    Netlist nl;
    NetId en = nl.addNet();
    nl.markInput(en);
    NetId loop = nl.addNet();
    NetId a = nl.addGate(GateKind::Nand2, {en, loop});
    NetId b = nl.addGate(GateKind::Not, {a});
    nl.addGateOnto(GateKind::Not, {b}, loop);
    nl.markOutput(loop);
    return nl;
}

TEST(Evaluator, FixpointMemoIsExactOnStatefulOperators)
{
    struct Operator
    {
        std::string name;
        Netlist nl;
        CleanFn clean; // empty: feedback netlist, full sweeps only
        int toggle;    // the input bit period-2 pairs flip
    };
    Operator ops[] = {
        {"multiplier", buildMultiplierSigned(16, FaStyle::Nand9),
         cleanMultiplierSigned(16), 0},
        {"adder", buildRippleAdder(24, FaStyle::Nand9, false),
         cleanAdder(24, false), 0},
        {"sigmoid", buildSigmoidUnit(logisticPwlTable(), FaStyle::Nand9),
         cleanSigmoidUnit(logisticPwlTable()), 0},
        {"latch", buildLatchRegister(16), {}, 16},
        {"gated ring", gatedRingNetlist(), {}, 0},
        // Four gates: most faults sit right on an input, where a
        // delayed gate's store can move while no net does.
        {"xor", xorNetlist(),
         [](uint64_t x) { return (x ^ (x >> 1)) & 1; }, 0},
    };
    Rng rng(4242);
    for (const Operator &op : ops) {
        for (int seed = 0; seed < 8; ++seed) {
            // Half the sets are random gate-level stateful faults,
            // half reconstructed transistor defects.
            FaultSet faults = seed % 2
                ? injectTransistorDefects(
                      op.nl, 1 + static_cast<int>(rng.nextUint(6)), rng)
                      .faults
                : randomStatefulFaults(
                      op.nl, rng, 1 + static_cast<int>(rng.nextUint(6)));
            std::vector<uint64_t> stream =
                memoStream(rng, op.nl.inputs().size(), op.toggle, 300);
            std::string what = op.name + " set " + std::to_string(seed);
            {
                Evaluator memo(op.nl, faults);
                Evaluator twin(op.nl, faults);
                expectMemoMatchesTwin(memo, twin, stream, rng,
                                      what + " full");
            }
            if (op.clean) {
                Evaluator memo(op.nl, faults, op.clean);
                Evaluator twin(op.nl, faults);
                ASSERT_TRUE(memo.conePruned()) << what;
                expectMemoMatchesTwin(memo, twin, stream, rng,
                                      what + " cone");
            }
        }
    }
}

/**
 * Independent scalar oracle: a direct per-gate interpreter of the
 * fault semantics, kept free of the evaluator's compiled program.
 * Each sweep visits every gate in order: a delayed gate drives its
 * store, any other gate its (override or clean) function of its
 * stuck-at adjusted inputs, where MEM leaves the net as it is (and
 * no output stuck-at applies); an output stuck-at replaces every
 * other value. The latch step then stores each delayed gate's
 * function, keeping the store on MEM.
 */
class Reference
{
  public:
    Reference(const Netlist &netlist, const FaultSet &faults)
        : nl(netlist), f(faults), net(netlist.numNets(), 0),
          store(netlist.numGates(), 0), relax(netlist.hasFeedback())
    {
    }

    void
    reset()
    {
        std::fill(net.begin(), net.end(), 0);
        std::fill(store.begin(), store.end(), 0);
    }

    void
    setInputBits(uint64_t bits)
    {
        for (size_t i = 0; i < nl.inputs().size(); ++i)
            net[nl.inputs()[i]] = (bits >> i) & 1;
    }

    void
    evaluate()
    {
        int cap = relax ? 64 : 1;
        for (sweeps = 0; sweeps < cap; ++sweeps) {
            gateEvals += nl.numGates();
            bool changed = false;
            for (uint32_t gi = 0; gi < nl.numGates(); ++gi) {
                int v = f.delayed.count(gi) ? store[gi] : function(gi);
                if (v == 2)
                    continue;
                for (const StuckAtFault &s : f.stuckAt)
                    if (s.gate == gi && s.input < 0)
                        v = s.value;
                changed |= net[nl.gate(gi).out] != v;
                net[nl.gate(gi).out] = static_cast<uint8_t>(v);
            }
            if (!changed)
                break;
        }
        oscillated = relax && sweeps == 64;
        for (uint32_t gi : f.delayed)
            if (int v = function(gi); v != 2)
                store[gi] = static_cast<uint8_t>(v);
    }

    uint64_t
    outputs() const
    {
        uint64_t bits = 0;
        for (size_t o = 0; o < std::min<size_t>(nl.outputs().size(), 64);
             ++o)
            bits |= uint64_t{net[nl.outputs()[o]]} << o;
        return bits;
    }

    int sweeps = 0;
    bool oscillated = false;
    uint64_t gateEvals = 0;

  private:
    /** 0, 1, or 2 for MEM. */
    int
    function(uint32_t gi) const
    {
        const Gate &g = nl.gate(gi);
        uint32_t in = 0;
        for (int i = 0; i < g.arity(); ++i)
            in |= uint32_t{net[g.in[i]]} << i;
        for (const StuckAtFault &s : f.stuckAt)
            if (s.gate == gi && s.input >= 0)
                in = (in & ~(1u << s.input)) |
                    (uint32_t{s.value} << s.input);
        auto it = f.overrides.find(gi);
        if (it != f.overrides.end())
            return static_cast<int>(it->second.eval(in));
        return gateEval(g.kind, in) ? 1 : 0;
    }

    const Netlist &nl;
    const FaultSet &f;
    std::vector<uint8_t> net;
    std::vector<uint8_t> store;
    bool relax;
};

/** Gate @p g's clean truth table with random MEM entries. */
GateFunction
memFunction(const Gate &g, Rng &rng)
{
    uint32_t value = 0, mem = 0;
    for (uint32_t c = 0; c < (1u << g.arity()); ++c) {
        if (gateEval(g.kind, c) != rng.nextBool(0.2))
            value |= 1u << c;
        if (rng.nextBool(0.4))
            mem |= 1u << c;
    }
    return GateFunction(g.arity(), value, mem);
}

/**
 * @p count random fault combinations, each on one gate: MEM
 * override + output stuck-at, delayed + input stuck-at, delayed +
 * output stuck-at, delayed + MEM override, override + input
 * stuck-at, or two clashing stuck-ats on one pin (the last wins).
 */
FaultSet
combinedFaults(const Netlist &nl, Rng &rng, int count)
{
    FaultSet f;
    for (int k = 0; k < count; ++k) {
        auto gi = static_cast<uint32_t>(rng.nextUint(nl.numGates()));
        const Gate &g = nl.gate(gi);
        auto input = [&] {
            return static_cast<int8_t>(
                rng.nextUint(static_cast<uint64_t>(g.arity())));
        };
        // Constants have no input pin to stick.
        uint64_t recipe = rng.nextUint(g.arity() ? 6 : 3);
        switch (recipe) {
          case 0:
            f.overrides[gi] = memFunction(g, rng);
            f.stuckAt.push_back({gi, -1, rng.nextBool()});
            break;
          case 1:
            f.delayed.insert(gi);
            f.stuckAt.push_back({gi, -1, rng.nextBool()});
            break;
          case 2:
            f.delayed.insert(gi);
            f.overrides[gi] = memFunction(g, rng);
            break;
          case 3:
            f.delayed.insert(gi);
            f.stuckAt.push_back({gi, input(), rng.nextBool()});
            break;
          case 4:
            f.overrides[gi] = memFunction(g, rng);
            f.stuckAt.push_back({gi, input(), rng.nextBool()});
            break;
          default: {
            int8_t pin = rng.nextBool() ? -1 : input();
            f.stuckAt.push_back({gi, pin, true});
            f.stuckAt.push_back({gi, pin, false});
            break;
          }
        }
    }
    return f;
}

/**
 * Drive @p ev (and, when given, a cone-pruned @p pruned twin)
 * against the reference over @p stream: per step either
 * evaluateBits() or setInput() + evaluate() + output() reads, with
 * reset() interleaved. Full-sweep results must match the oracle's
 * outputs, sweep count, oscillation flag and gate-eval total; the
 * pruned twin must match its outputs.
 */
void
expectMatchesReference(const Netlist &nl, const FaultSet &faults,
                       const CleanFn &clean,
                       const std::vector<uint64_t> &stream, Rng &rng,
                       const std::string &what)
{
    Evaluator ev(nl, faults);
    Evaluator pruned(nl, faults, clean);
    Reference ref(nl, faults);
    size_t nin = nl.inputs().size();
    size_t nout = std::min<size_t>(nl.outputs().size(), 64);
    for (size_t t = 0; t < stream.size(); ++t) {
        std::string at = what + " step " + std::to_string(t);
        if (rng.nextUint(25) == 0) {
            ev.reset();
            pruned.reset();
            ref.reset();
        }
        ref.setInputBits(stream[t]);
        ref.evaluate();
        if (rng.nextBool(0.3)) {
            for (size_t i = 0; i < nin; ++i)
                ev.setInput(i, stream[t] >> i & 1);
            ev.evaluate();
            for (size_t o = 0; o < nout; ++o)
                ASSERT_EQ(ev.output(o), (ref.outputs() >> o & 1) != 0)
                    << at << " output " << o;
        } else {
            ASSERT_EQ(ev.evaluateBits(stream[t]), ref.outputs()) << at;
        }
        ASSERT_EQ(ev.lastSweeps(), ref.sweeps) << at;
        ASSERT_EQ(ev.lastOscillated(), ref.oscillated) << at;
        ASSERT_EQ(ev.gateEvals(), ref.gateEvals) << at;
        if (clean) {
            ASSERT_EQ(pruned.evaluateBits(stream[t]), ref.outputs())
                << at << " pruned";
        }
    }
}

TEST(Evaluator, MatchesIndependentReference)
{
    struct Operator
    {
        std::string name;
        Netlist nl;
        CleanFn clean; // empty: feedback netlist, full sweeps only
        int toggle;
    };
    Operator ops[] = {
        {"adder4", buildRippleAdder(4, FaStyle::Mirror, true),
         cleanAdder(4, true), 0},
        {"multiplier4", buildMultiplierSigned(4, FaStyle::Nand9),
         cleanMultiplierSigned(4), 0},
        {"sigmoid", buildSigmoidUnit(logisticPwlTable(), FaStyle::Nand9),
         cleanSigmoidUnit(logisticPwlTable()), 0},
        {"latch", buildLatchRegister(8), {}, 8},
        {"gated ring", gatedRingNetlist(), {}, 0},
    };
    Rng rng(1313);
    for (const Operator &op : ops) {
        for (int seed = 0; seed < 12; ++seed) {
            int count = 1 + static_cast<int>(rng.nextUint(5));
            FaultSet faults;
            switch (seed % 3) {
              case 0:
                faults = combinedFaults(op.nl, rng, count);
                break;
              case 1:
                faults = randomStatefulFaults(op.nl, rng, count);
                faults.merge(combinedFaults(op.nl, rng, 1));
                break;
              default:
                faults = injectTransistorDefects(op.nl, count, rng).faults;
                break;
            }
            std::vector<uint64_t> stream =
                memoStream(rng, op.nl.inputs().size(), op.toggle, 200);
            expectMatchesReference(op.nl, faults, op.clean, stream, rng,
                                   op.name + " set " +
                                       std::to_string(seed));
        }
    }
}

/** A netlist of @p n primary inputs, each through an inverter. */
Netlist
wideInverterNetlist(size_t n)
{
    Netlist nl;
    for (size_t i = 0; i < n; ++i) {
        NetId in = nl.addNet();
        nl.markInput(in);
        nl.markOutput(nl.addGate(GateKind::Not, {in}));
    }
    return nl;
}

TEST(EvaluatorDeathTest, InputWriteWiderThan64BitsAsserts)
{
    Netlist nl = wideInverterNetlist(65);
    Evaluator ev(nl);
    ev.setInputRange(1, 64, ~uint64_t{0}); // 64 bits is the limit
    EXPECT_DEATH(ev.setInputRange(0, 65, 0), "at most 64 bits");
    EXPECT_DEATH(ev.evaluateBits(0), "at most 64 bits");
}

} // namespace
} // namespace dtann
