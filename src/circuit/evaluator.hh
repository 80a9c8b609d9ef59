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
 */

#ifndef DTANN_CIRCUIT_EVALUATOR_HH
#define DTANN_CIRCUIT_EVALUATOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "circuit/fault_cone.hh"
#include "circuit/faults.hh"
#include "circuit/netlist.hh"

namespace dtann {

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

    // Internal tables point into the owned fault set; keep the
    // evaluator pinned in place.
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
    bool conePruned() const { return cone.valid; }

    /** The fault-cone analysis (valid only when conePruned()). */
    const FaultCone &faultCone() const { return cone; }

    /** Total scalar gate evaluations (gates x sweeps) so far. */
    uint64_t gateEvals() const { return gateEvalCount; }

  private:
    const Netlist &nl;
    FaultSet faultSet;
    CleanFn cleanFn;
    FaultCone cone;

    /** Per-net current value. */
    std::vector<uint8_t> netVal;
    /** Per-gate stored output for delayed gates (index aligned). */
    std::vector<uint8_t> delayStore;
    /** Per-gate override pointer (null when clean), by gate index. */
    std::vector<const GateFunction *> overridePtr;
    /** Per-gate delayed flag. */
    std::vector<uint8_t> delayedFlag;
    /** Per-gate, per-input stuck value (-1 = none). */
    std::vector<std::array<int8_t, 4>> inputForce;
    /** Per-gate output stuck value (-1 = none). */
    std::vector<int8_t> outputForce;
    /** True when any fault table is populated. */
    bool haveFaults;
    /** True when the netlist has feedback and needs relaxation. */
    bool needsRelaxation;

    int sweeps = 0;
    bool oscillated = false;
    uint64_t gateEvalCount = 0;

    /** evaluateBits() memo: set while the state is the one the
     *  call with input memoIn (output memoOut) found and kept. */
    bool memoValid = false;
    uint64_t memoIn = 0;
    uint64_t memoOut = 0;

    /** Compute the (fault-adjusted) packed inputs of gate @p gi. */
    uint32_t gateInputs(size_t gi) const;

    /** Sweep @p active gates (all gates when null) until stable. */
    void runSweeps(const std::vector<uint32_t> *active);

    /**
     * Latch pending values of delayed gates for the next round.
     * @return true when any delay store changed
     */
    bool latchDelayed();
};

} // namespace dtann

#endif // DTANN_CIRCUIT_EVALUATOR_HH
