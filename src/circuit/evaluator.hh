/**
 * @file
 * Stateful netlist evaluation.
 *
 * The evaluator resolves a netlist by relaxation: it sweeps gates in
 * construction order until no net changes. Builders emit gates
 * topologically, so defect-free combinational netlists converge in
 * one sweep; feedback structures (cross-coupled NAND latches) and
 * faulty gates with MEM entries converge in a few. Net values
 * persist across evaluations, which is what gives faulty gates their
 * memory behaviour.
 *
 * The first scalar evaluation compiles the (netlist, fault set,
 * cone) triple into a flat gate program (GateOp, one per swept
 * gate) whose ops fold every fault into per-gate truth tables, so a
 * sweep is one table lookup per gate with no branch on the fault
 * class. See DESIGN.md section 9 for the exactness rules.
 */

#ifndef DTANN_CIRCUIT_EVALUATOR_HH
#define DTANN_CIRCUIT_EVALUATOR_HH

#include <cstdint>
#include <vector>

#include "circuit/fault_cone.hh"
#include "circuit/faults.hh"
#include "circuit/netlist.hh"

namespace dtann {

/**
 * One compiled gate: gather four input slots, apply the input
 * stuck-ats, then look the result up in two 16-entry truth tables.
 * A set mem bit keeps the output slot's value (a floating node);
 * otherwise the one bit is the new value.
 */
struct GateOp
{
    /** Input slots in netVal; arity padding reads the zero slot. */
    uint32_t in[4];
    /** Slot written: the gate's output net or a delay store. */
    uint32_t out;
    /** Output per packed input combination. */
    uint16_t one;
    /** Combinations whose output floats (keeps its value). */
    uint16_t mem;
    /** Input bits read from the slots (clear = stuck). */
    uint8_t keep;
    /** Stuck input bits. */
    uint8_t force;
};

/** Evaluates a Netlist, optionally with injected faults. */
class Evaluator
{
  public:
    /**
     * @param netlist the circuit; must outlive the evaluator
     * @param faults faults to apply (copied)
     * @param clean optional native model of the defect-free operator
     *        (packed inputs -> packed outputs). When given and the
     *        netlist is feedback-free, evaluateBits() simulates only
     *        the fault cone and splices all other output bits from
     *        this model instead of sweeping every gate.
     */
    explicit Evaluator(const Netlist &netlist, FaultSet faults = {},
                       CleanFn clean = {});

    // Evaluators are stateful simulation instances; never copied.
    Evaluator(const Evaluator &) = delete;
    Evaluator &operator=(const Evaluator &) = delete;

    /** Clear all state (nets and delayed-gate stores) to 0. */
    void reset();

    /** Set primary input @p index (bus order) to @p value. */
    void setInput(size_t index, bool value);

    /** Set the first @p count primary inputs from packed bits. */
    void setInputBits(uint64_t bits, size_t count);

    /** Set @p width inputs starting at @p offset from packed bits. */
    void setInputRange(size_t offset, size_t width, uint64_t bits);

    /** Propagate values until stable (or the sweep cap). */
    void evaluate();

    /** Read primary output @p index (bus order). */
    bool output(size_t index) const;

    /** Read the first @p count primary outputs as packed bits. */
    uint64_t outputBits(size_t count) const;

    /** Read @p width outputs starting at @p offset as packed bits. */
    uint64_t outputRange(size_t offset, size_t width) const;

    /**
     * Convenience: set all inputs, evaluate, return all outputs.
     *
     * Memoizes fixpoints: a call whose first sweep changes no net
     * and whose latch step changes no delay store leaves the state
     * exactly as it found it, so the next call with the same input
     * would repeat it bit for bit. That call returns the stored
     * output and credits the one no-op sweep instead (gateEvals(),
     * lastSweeps() and lastOscillated() read exactly as without
     * the memo). reset(), setInput*() and evaluate() drop the memo.
     */
    uint64_t evaluateBits(uint64_t input_bits);

    /** Number of sweeps used by the last evaluate(). */
    int lastSweeps() const { return sweeps; }

    /** True when the last evaluate() hit the sweep cap. */
    bool lastOscillated() const { return oscillated; }

    /** The netlist being evaluated. */
    const Netlist &netlist() const { return nl; }

    /** The installed fault set. */
    const FaultSet &faults() const { return faultSet; }

    /** True when evaluateBits() runs the cone-pruned path. */
    bool conePruned() const { return analysis().valid; }

    /** The fault-cone analysis (valid only when conePruned()). */
    const FaultCone &faultCone() const { return analysis(); }

    /** Total scalar gate evaluations (gates x sweeps) so far. */
    uint64_t gateEvals() const { return gateEvalCount; }

  private:
    const Netlist &nl;
    FaultSet faultSet;
    CleanFn cleanFn;

    /** Built by analysis() on first use (the lane path of an
     *  OperatorSim never needs it). */
    mutable bool analyzed = false;
    mutable FaultCone cone;
    /** True when the netlist has feedback and needs relaxation. */
    mutable bool needsRelaxation = false;

    /**
     * Per-slot value: the nets, then one store per delayed gate
     * (the value its output drives this round), then a zero slot
     * no op writes.
     */
    std::vector<uint8_t> netVal;
    /** Sweep program over the cone's active gates (when valid). */
    std::vector<GateOp> coneOps;
    /** Sweep program over every gate; built on first full sweep. */
    std::vector<GateOp> fullOps;
    bool compiled = false;
    /** Latch program: one op per delayed gate into its store. */
    std::vector<GateOp> latchOps;

    int sweeps = 0;
    bool oscillated = false;
    uint64_t gateEvalCount = 0;

    /** evaluateBits() memo: set while the state is the one the
     *  call with input memoIn (output memoOut) found and kept. */
    bool memoValid = false;
    uint64_t memoIn = 0;
    uint64_t memoOut = 0;

    /** Run the cone analysis and feedback check once. */
    const FaultCone &analysis() const;

    /** Compile the cone and latch programs on first evaluation. */
    void compile();

    /** The full-netlist program, compiled on first use. */
    const std::vector<GateOp> &fullProgram();

    /** Program over @p gates (all gates when null), in order. */
    std::vector<GateOp> program(const std::vector<uint32_t> *gates) const;

    /** Compile gate @p gi's sweep op. */
    GateOp sweepOp(uint32_t gi) const;

    /** Op computing gate @p gi's defect-free function into @p out. */
    GateOp cleanOp(uint32_t gi, uint32_t out) const;

    /**
     * Op computing gate @p gi's (possibly overridden) function of
     * its stuck-at-adjusted inputs into slot @p out, with no output
     * stuck-at.
     */
    GateOp functionOp(uint32_t gi, uint32_t out) const;

    /** Slot of the zero constant that pads short gates. */
    uint32_t zeroSlot() const
    {
        return static_cast<uint32_t>(netVal.size() - 1);
    }

    /** Sweep @p ops until stable (or the sweep cap). */
    void runSweeps(const std::vector<GateOp> &ops);
};

} // namespace dtann

#endif // DTANN_CIRCUIT_EVALUATOR_HH
