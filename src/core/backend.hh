/**
 * @file
 * The hardware-backend boundary of the defect-tolerance study.
 *
 * The paper measures defect tolerance on one microarchitecture —
 * the spatially expanded 90-10-10 array — but the question is
 * architecture-relative: the same transistor defect corrupts a
 * different slice of the computation on a different dataflow. A
 * HardwareBackend is everything the campaign stack needs from a
 * microarchitecture:
 *
 *  - a ForwardModel for the mapped logical task (so the companion
 *    core retrains through the faulty hardware),
 *  - a defect-injection surface (unit sites, netlists, injection),
 *  - BIST scan hooks for the diagnosis harness,
 *  - bypass/clamp mitigation hooks, and
 *  - deviation probes + simulation work counters.
 *
 * The fault-hosting machinery (shared operator netlists, per-site
 * gate-level simulations, bypass muxes, clamp windows, deviation
 * probes) and the per-neuron multiply/add chain are identical
 * across backends and live here concretely; a backend contributes
 * its *dataflow* — which physical unit executes which (pass,
 * neuron, operand) operation — via physicalSite(). SpatialBackend
 * (core/accelerator.hh) keeps the paper's per-layer dedicated
 * units; SystolicBackend (core/systolic.hh) time-multiplexes a
 * weight-stationary PE grid across both layers.
 */

#ifndef DTANN_CORE_BACKEND_HH
#define DTANN_CORE_BACKEND_HH

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "ann/mlp.hh"
#include "circuit/sim_counters.hh"
#include "common/fixed_point.hh"
#include "common/stats.hh"
#include "rtl/builder.hh"
#include "rtl/operator_sim.hh"

namespace dtann {

/** Physical dimensions and implementation style of the array. */
struct AcceleratorConfig
{
    int inputs = 90;
    int hidden = 10;
    int outputs = 10;
    FaStyle faStyle = FaStyle::Nand9;

    /** JSON object (embedded in campaign specs and exports). */
    std::string toJson() const;
    /** Symmetric counterpart of toJson(); throws JsonError. */
    static AcceleratorConfig fromJson(const class JsonValue &v);

    bool operator==(const AcceleratorConfig &o) const = default;
};

/** Unit kinds that can host defects (paper Section VI-C). */
enum class UnitKind : uint8_t {
    WeightLatch, ///< 16-bit distributed weight storage
    Multiplier,  ///< per-synapse 16x16 Q6.10 multiplier
    AdderStage,  ///< one 24-bit stage of a neuron's adder chain
    Activation,  ///< per-neuron PWL sigmoid unit
};

/**
 * Layers of the array. For the spatial backend this addresses
 * physically distinct unit banks; for pass-multiplexed backends it
 * doubles as the *pass* coordinate (which layer's computation is
 * flowing through a shared unit).
 */
enum class Layer : uint8_t { Hidden, Output };

/** Address of one hardware unit instance. */
struct UnitSite
{
    UnitKind kind;
    Layer layer;
    int neuron;  ///< neuron index within the layer (grid column)
    int index;   ///< synapse index (latch/mult) or stage index (row)

    bool operator<(const UnitSite &o) const;
    bool operator==(const UnitSite &o) const = default;

    /** Human-readable site description. */
    std::string describe() const;
};

/** Observed |faulty - clean| deviations at one faulty unit. */
struct DeviationProbe
{
    RunningStat amplitude; ///< absolute deviation, in value units
};

/**
 * A per-layer activation clamp window (mitigation hook): a pair of
 * comparators after every activation unit of the layer saturates
 * the datapath value into [lo, hi], filtering the exceptional
 * outputs a defective sigmoid unit can emit (the full ±32 Q6.10
 * range) before they reach the next layer. The clean PWL sigmoid
 * lands in [0, 1], so a profiled window never alters a healthy
 * unit.
 */
struct ActivationClamp
{
    bool enabled = false;
    Fix16 lo;
    Fix16 hi;
};

/** Which unit instances are eligible for defects. */
struct SitePool
{
    bool hiddenLayer = true;   ///< synapses into + neurons of hidden
    bool outputLayer = false;
    bool latches = true;
    bool multipliers = true;
    bool adders = true;
    bool activations = true;

    /** Fig 10 pool: everything in the input and hidden layers. */
    static SitePool inputAndHidden();
    /** Fig 11 pool: output-layer adders and activation functions. */
    static SitePool outputCritical();
    /** Every unit in the array. */
    static SitePool all();

    /** JSON object of the six eligibility flags. */
    std::string toJson() const;
    /**
     * Symmetric counterpart of toJson(). Also accepts the named
     * shorthands "all", "input_hidden" and "output_critical" as a
     * JSON string. Throws JsonError on anything else.
     */
    static SitePool fromJson(const class JsonValue &v);

    bool operator==(const SitePool &o) const = default;
};

/** The implemented hardware backends. */
enum class BackendKind : uint8_t {
    Spatial,  ///< paper Fig 3: per-layer dedicated units
    Systolic, ///< weight-stationary PE grid, pass-multiplexed
};

/** Stable lower-case backend name, used in JSON specs. */
const char *backendName(BackendKind kind);

/** Parse a backendName(); returns false on unknown names. */
bool backendFromName(const std::string &name, BackendKind &out);

/** Comma-separated list of valid names, for error messages. */
std::string backendNameList();

/**
 * Functional + defect model of one hardware target.
 *
 * Owns the shared unit netlists and every piece of fault state:
 * gate-level simulations of faulty units, mitigation bypass muxes,
 * activation clamp windows, and deviation probes, and runs the
 * forward pass: per pass, each neuron's multiply/add chain over
 * the pass-addressed unit operations. Concrete backends describe
 * their physical unit population via unitCount() /
 * enumerateSites() and map operations onto it via physicalSite().
 */
class HardwareBackend : public ForwardModel
{
  public:
    /**
     * @param config physical array dimensions
     * @param logical task network mapped onto the array (must fit)
     */
    HardwareBackend(const AcceleratorConfig &config,
                    MlpTopology logical);
    ~HardwareBackend() override;

    /** Which microarchitecture this is. */
    virtual BackendKind backendKind() const = 0;

    /** The mapped logical topology. */
    MlpTopology topology() const override { return logical; }

    /** Physical configuration. */
    const AcceleratorConfig &config() const { return cfg; }

    /** Aggregate simulation work counters over all faulty units. */
    SimCounters simCounters() const override;

    /**
     * Quantize logical weights and store them through the (possibly
     * faulty) weight latches — the DMA write path. Logical weights
     * land in the top-left corner of each pass (bias synapse last);
     * every other synapse stores 0. Only latches that can change are
     * written: the corner, faulty or bypassed latches, and latches
     * that hold a nonzero value. Values are read straight from
     * @p w's stage 0 (hidden) and stage 1 (output) arrays.
     */
    void setWeights(const DeepWeights &w) override;

    /** Forward one logical input row through both passes. */
    Activations forward(std::span<const double> input) override;

    /**
     * Forward a batch of logical input rows, evaluating each faulty
     * unit up to batchLaneWidth() rows per gate-level sweep
     * (state-free fault sets; 64/256/512 lanes per the DTANN_LANES
     * knob) or in row order through its scalar simulation
     * otherwise. Each pass runs over a whole lane chunk before the
     * next, which is bit-identical to calling forward() per row at
     * every lane width, including the per-unit deviation-probe
     * update order, as long as no unit serves both passes.
     */
    std::vector<Activations> forwardBatch(
        std::span<const std::vector<double>> inputs) override;

    /** Pre-activation sums of the last hidden-pass run. */
    const std::vector<Acc24> &hiddenSums() const { return hidSums; }

    /**
     * Synapses i >= 1 of (@p pass, @p neuron) that both neuron
     * chains evaluate, ascending: every nonzero stored weight and
     * every position whose multiplier or adder stage i - 1 is faulty
     * or bypassed. Synapse 0 opens the chain and is always run.
     */
    std::vector<int> liveSynapses(Layer pass, int neuron) const;

    /**
     * True when every faulty unit's simulation is a pure function
     * (lane-batchable: state-free faults on feedback-free
     * netlists; vacuously true on a clean array). Wrapper models
     * that hoist weight reloads across input rows (time-mux) may
     * only do so under this predicate — stateful simulations and
     * faulty weight latches depend on the exact per-row operation
     * order. DTANN_NO_BATCH clears it, forcing the per-row paths.
     */
    bool batchPure() const;

    /**
     * Inject @p count transistor-level defects into one unit
     * instance chosen by the campaign (the unit becomes gate-level
     * simulated). The site folds through physicalSite(), so a pass
     * address of a shared unit hits the same silicon as its
     * canonical address; isFaulty()/bypassUnit()/isBypassed() fold
     * the same way.
     *
     * @return descriptions of the injected faults
     */
    std::vector<InjectionRecord> injectDefects(const UnitSite &site,
                                               int count, Rng &rng);

    /** Remove all injected defects and probes. */
    void clearDefects();

    /** Sites that currently host defects. */
    std::vector<UnitSite> faultySites() const;

    /**
     * Ground-truth query: does @p site currently host injected
     * defects? Diagnosis code (src/mitigate) scores its inferred
     * defect maps against this.
     */
    bool isFaulty(const UnitSite &site) const;

    /** Number of hardware units of @p kind (for site sampling). */
    virtual int unitCount(UnitKind kind) const = 0;

    /**
     * Enumerate every unit instance this backend exposes that
     * @p pool makes eligible, in a fixed deterministic order.
     * Shared by the defect injector (sampling) and the BIST
     * diagnosis harness (exhaustive per-unit probing).
     */
    virtual std::vector<UnitSite>
    enumerateSites(const SitePool &pool) const = 0;

    /** @name BIST scan access (src/mitigate diagnosis harness)
     *
     * Drive a test vector through one unit instance and observe its
     * raw response, modelling a scan-path that isolates the unit
     * from the array datapath. Faulty units respond through their
     * gate-level simulation (including defect-induced memory), clean
     * units respond with native fixed-point arithmetic. Probing
     * updates the unit's deviation probe like any other use.
     * @{ */
    Fix16 bistMul(Layer layer, int neuron, int synapse, Fix16 w,
                  Fix16 x);
    Acc24 bistAdd(Layer layer, int neuron, int stage, Acc24 a, Acc24 b);
    Fix16 bistAct(Layer layer, int neuron, Fix16 x);
    Fix16 bistLatchStore(Layer layer, int neuron, int synapse, Fix16 d);
    /** @} */

    /** @name Defect bypass (src/mitigate mitigation strategies)
     *
     * A bypassed unit is disconnected from the datapath by a small
     * output mux (fault-aware pruning): a bypassed multiplier or
     * weight latch contributes a zero product, a bypassed adder
     * stage passes its accumulator input through unchanged (dropping
     * that stage's product), and a bypassed activation unit emits a
     * constant zero (silencing the neuron). The bypass takes
     * precedence over any injected defect at the unit.
     * @{ */
    void bypassUnit(const UnitSite &site);
    void clearBypasses();
    bool isBypassed(const UnitSite &site) const;
    std::vector<UnitSite> bypassedSites() const;
    /** @} */

    /** @name Activation clamping (src/mitigate ClampActivations)
     *
     * The clamp applies on the *datapath* only — after the
     * activation unit's output, before the value feeds the next
     * layer or leaves the array — so the BIST scan path still
     * observes raw (unclamped) unit responses and diagnosis stays
     * honest. Scalar and lane-batched forwards clamp identically,
     * preserving bit-identity at every lane width.
     * @{ */
    void setActivationClamp(Layer layer, Fix16 lo, Fix16 hi);
    void clearActivationClamps();
    const ActivationClamp &activationClamp(Layer layer) const;
    /** Datapath values saturated by the clamps since the last
     *  clearActivationClamps(). */
    uint64_t clampHits() const { return clampHitCount; }
    /** @} */

    /**
     * Deviation probe of a faulty unit (empty stats when clean).
     * Backends whose units serve several passes merge the per-pass
     * accumulators deterministically.
     */
    virtual const DeviationProbe &probe(const UnitSite &site) const;

    /** Reset all deviation probes. */
    void clearProbes();

    /** Shared netlists (also used by the cost model). @{ */
    const Netlist &multiplierNetlist() const { return *multNl; }
    const Netlist &adderNetlist() const { return *addNl; }
    const Netlist &latchNetlist() const { return *latchNl; }
    const Netlist &activationNetlist() const { return *actNl; }
    /** The netlist instantiated per unit of @p kind. */
    const Netlist &unitNetlist(UnitKind kind) const;
    /** @} */

  protected:
    /**
     * Map a pass-addressed operation (kind, pass layer, neuron,
     * operand index) to the physical unit that executes it. The
     * default is the identity — one dedicated unit per (layer,
     * neuron, index), the spatial dataflow. Pass-multiplexed
     * backends collapse both passes onto shared units. Faulty-sim,
     * bypass and injection state is keyed by the *physical* site;
     * deviation probes stay keyed by the pass address so their
     * order-dependent Welford streams remain per-pass row-ordered
     * (and therefore identical between the scalar and lane-batched
     * paths at any lane width).
     */
    virtual UnitSite physicalSite(const UnitSite &pass_site) const
    {
        return pass_site;
    }

    /** Faulty-unit lookup; null when the site is clean. */
    OperatorSim *simFor(const UnitSite &site);

    /**
     * Store a full physical weight row of @p neuron of @p pass
     * (fan-in + 1 values, bias last) through its latches, in synapse
     * order.
     */
    void storeRow(Layer pass, int neuron, std::span<const Fix16> weights);

    /** Run one pass (scalar schedule). */
    void forwardLayer(Layer pass, std::span<const Fix16> in,
                      std::span<Fix16> out);

    /** Run one pass over <= kMaxLanes rows (one pointer each). */
    void forwardLayerLanes(Layer pass,
                           const std::vector<const Fix16 *> &in,
                           const std::vector<Fix16 *> &out,
                           size_t lanes);

    /** Apply @p layer's clamp window to one datapath value. */
    Fix16 clampValue(Layer layer, Fix16 x);

    /** Per-unit operations (route through sim when faulty). @{ */
    Fix16 unitMul(Layer layer, int neuron, int synapse, Fix16 w, Fix16 x);
    Acc24 unitAdd(Layer layer, int neuron, int stage, Acc24 a, Acc24 b);
    Fix16 unitAct(Layer layer, int neuron, Fix16 x);
    Fix16 unitLatchStore(Layer layer, int neuron, int synapse, Fix16 d);
    /** @} */

    /** Lane-wise unit operations (<= kMaxLanes rows at a time). @{ */
    void unitMulLanes(Layer layer, int neuron, int synapse, Fix16 w,
                      const Fix16 *x, Fix16 *out, size_t lanes);
    void unitAddLanes(Layer layer, int neuron, int stage, Acc24 *acc,
                      const Acc24 *b, size_t lanes);
    void unitActLanes(Layer layer, int neuron, const Fix16 *x,
                      Fix16 *out, size_t lanes);
    /** @} */

    AcceleratorConfig cfg;
    MlpTopology logical;

    /** Shared unit netlists. */
    std::shared_ptr<const Netlist> multNl;
    std::shared_ptr<const Netlist> addNl;
    std::shared_ptr<const Netlist> latchNl;
    std::shared_ptr<const Netlist> actNl;

    /** Gate-level sims of faulty units (physical-site keyed). */
    std::map<UnitSite, std::unique_ptr<OperatorSim>> faulty;
    /** Units disconnected by the mitigation bypass muxes. */
    std::set<UnitSite> bypassed;
    /** Per-layer activation clamp windows (Hidden, Output). */
    ActivationClamp clamps[2];
    uint64_t clampHitCount = 0;
    /** Deviation probes (pass-address keyed; see physicalSite()). */
    std::map<UnitSite, DeviationProbe> probes;
    DeviationProbe cleanProbe; // returned for clean sites

    /** Hidden-activation scratch of the per-row paths (forward(),
     *  runHiddenLayer(), forwardFix()); each writes it first. */
    std::vector<Fix16> hiddenAct;
    /** Pre-activation hidden sums of the last processed row. */
    std::vector<Acc24> hidSums;
    /** [lane * hidden + neuron] sums of the last lanes run. */
    std::vector<Acc24> hidSumsLanes;

  private:
    /** unitFlags bits. */
    static constexpr uint8_t kHostsDefects = 1;
    static constexpr uint8_t kBypassed = 2;

    /**
     * Dense flags (kHostsDefects | kBypassed) of the physical unit
     * each pass address folds onto, mirroring `faulty` and
     * `bypassed`: the unit operations tell a plain unit without a
     * physicalSite() fold or a tree lookup.
     */
    std::vector<uint8_t> unitFlags;

    /** unitFlags slot of a pass address. */
    size_t flagIndex(const UnitSite &site) const;
    /** Set @p bit on every pass address that folds onto @p phys,
     *  and their busy-mask bits. */
    void markUnit(const UnitSite &phys, uint8_t bit);
    /** Clear @p bit everywhere and rebuild the busy masks. */
    void unmarkAll(uint8_t bit);

    /** forward()'s physical input row (logical inputs, then zero
     *  padding that is never written) and output row. */
    std::vector<Fix16> rowIn;
    std::vector<Fix16> rowOut;

    /** Stored physical weights (post-latch values), per pass. */
    std::vector<Fix16> hidW; // [hidden][inputs+1]
    std::vector<Fix16> outW; // [outputs][hidden+1]

    /** Stored (post-latch) weights of one neuron of @p pass, bias
     *  last. */
    const Fix16 *weightRow(Layer pass, int neuron) const;

    /**
     * Per-row synapse bitmasks, [pass][neuron][word] with maskWords
     * 64-bit words per row (bit i = synapse i):
     *  - nonzeroMask: the stored weight at i is nonzero; kept by
     *    storeWeight(), the only writer of hidW/outW;
     *  - busyLatchMask: latch i is faulty or bypassed;
     *  - busyChainMask: multiplier i or adder stage i - 1 is faulty
     *    or bypassed.
     * markUnit() sets the busy bits of the addresses it marks;
     * unmarkAll() rebuilds both busy masks from unitFlags.
     */
    size_t maskWords;
    std::vector<uint64_t> nonzeroMask;
    std::vector<uint64_t> busyLatchMask;
    std::vector<uint64_t> busyChainMask;
    /** Logical corner of a used row, [pass][word]. */
    std::vector<uint64_t> cornerMask;

    /** Offset of (pass, neuron)'s first word in the row masks. */
    size_t maskRow(Layer pass, int neuron) const;
    /** Set the busy-mask bit a faulty or bypassed unit at pass
     *  address @p pass makes (none for activations). */
    void markBusy(const UnitSite &pass);
    /** Recompute busyLatchMask/busyChainMask from unitFlags. */
    void rebuildBusyMasks();

    /**
     * The latch-write primitive: store @p d through latch
     * (pass, neuron, synapse) and keep the row's nonzero bit.
     */
    void storeWeight(Layer pass, int neuron, int synapse, Fix16 d);

    /** Call @p f(i) for each liveSynapses() position, ascending. */
    template <class F>
    void forEachLiveSynapse(Layer pass, int neuron, F &&f) const;
};

/**
 * Construct the backend for @p kind with the given physical
 * configuration and mapped task. The campaign layer funnels every
 * backend construction through here so a config's `backend` field
 * is honored uniformly.
 */
std::unique_ptr<HardwareBackend>
makeBackend(BackendKind kind, const AcceleratorConfig &config,
            MlpTopology logical);

} // namespace dtann

#endif // DTANN_CORE_BACKEND_HH
