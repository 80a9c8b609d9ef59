#include "core/backend.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "ann/sigmoid.hh"
#include "circuit/lane_plane.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/accelerator.hh"
#include "core/systolic.hh"
#include "rtl/adder.hh"
#include "rtl/clean_model.hh"
#include "rtl/latch.hh"
#include "rtl/multiplier.hh"
#include "rtl/sigmoid_unit.hh"

namespace dtann {

std::string
AcceleratorConfig::toJson() const
{
    std::string out = "{\"inputs\":" + std::to_string(inputs);
    out += ",\"hidden\":" + std::to_string(hidden);
    out += ",\"outputs\":" + std::to_string(outputs);
    out += ",\"fa_style\":" + jsonString(faStyleName(faStyle));
    out += "}";
    return out;
}

AcceleratorConfig
AcceleratorConfig::fromJson(const JsonValue &v)
{
    if (!v.isObject())
        throw JsonError("accelerator config must be a JSON object");
    AcceleratorConfig c;
    c.inputs = jsonGetInt(v, "inputs", c.inputs, 1, 1 << 20);
    c.hidden = jsonGetInt(v, "hidden", c.hidden, 1, 1 << 20);
    c.outputs = jsonGetInt(v, "outputs", c.outputs, 1, 1 << 20);
    std::string style =
        jsonGetString(v, "fa_style", faStyleName(c.faStyle));
    if (!faStyleFromName(style, c.faStyle))
        throw JsonError("unknown fa_style '" + style +
                        "' (expected nand9 or mirror)");
    return c;
}

bool
UnitSite::operator<(const UnitSite &o) const
{
    return std::tie(kind, layer, neuron, index) <
        std::tie(o.kind, o.layer, o.neuron, o.index);
}

std::string
UnitSite::describe() const
{
    const char *k = "?";
    switch (kind) {
      case UnitKind::WeightLatch: k = "latch"; break;
      case UnitKind::Multiplier: k = "mult"; break;
      case UnitKind::AdderStage: k = "adder"; break;
      case UnitKind::Activation: k = "act"; break;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s[%s n%d i%d]", k,
                  layer == Layer::Hidden ? "hid" : "out", neuron, index);
    return buf;
}

SitePool
SitePool::inputAndHidden()
{
    SitePool p;
    p.hiddenLayer = true;
    p.outputLayer = false;
    return p;
}

SitePool
SitePool::outputCritical()
{
    SitePool p;
    p.hiddenLayer = false;
    p.outputLayer = true;
    p.latches = false;
    p.multipliers = false;
    p.adders = true;
    p.activations = true;
    return p;
}

SitePool
SitePool::all()
{
    SitePool p;
    p.hiddenLayer = p.outputLayer = true;
    return p;
}

std::string
SitePool::toJson() const
{
    auto flag = [](bool b) { return b ? "true" : "false"; };
    std::string out = "{\"hidden_layer\":";
    out += flag(hiddenLayer);
    out += ",\"output_layer\":";
    out += flag(outputLayer);
    out += ",\"latches\":";
    out += flag(latches);
    out += ",\"multipliers\":";
    out += flag(multipliers);
    out += ",\"adders\":";
    out += flag(adders);
    out += ",\"activations\":";
    out += flag(activations);
    out += "}";
    return out;
}

SitePool
SitePool::fromJson(const JsonValue &v)
{
    if (v.kind() == JsonValue::Kind::String) {
        const std::string &name = v.asString();
        if (name == "all")
            return all();
        if (name == "input_hidden")
            return inputAndHidden();
        if (name == "output_critical")
            return outputCritical();
        throw JsonError("unknown site pool '" + name +
                        "' (expected all, input_hidden or "
                        "output_critical)");
    }
    if (!v.isObject())
        throw JsonError("site pool must be a name string or an "
                        "object of eligibility flags");
    SitePool p;
    p.hiddenLayer = jsonGetBool(v, "hidden_layer", p.hiddenLayer);
    p.outputLayer = jsonGetBool(v, "output_layer", p.outputLayer);
    p.latches = jsonGetBool(v, "latches", p.latches);
    p.multipliers = jsonGetBool(v, "multipliers", p.multipliers);
    p.adders = jsonGetBool(v, "adders", p.adders);
    p.activations = jsonGetBool(v, "activations", p.activations);
    return p;
}

const char *
backendName(BackendKind kind)
{
    return kind == BackendKind::Spatial ? "spatial" : "systolic";
}

bool
backendFromName(const std::string &name, BackendKind &out)
{
    if (name == "spatial") {
        out = BackendKind::Spatial;
        return true;
    }
    if (name == "systolic") {
        out = BackendKind::Systolic;
        return true;
    }
    return false;
}

std::string
backendNameList()
{
    return "spatial, systolic";
}

HardwareBackend::HardwareBackend(const AcceleratorConfig &config,
                                 MlpTopology logical_topo)
    : cfg(config), logical(logical_topo),
      multNl(std::make_shared<Netlist>(
          buildMultiplierSigned(16, config.faStyle))),
      addNl(std::make_shared<Netlist>(
          buildRippleAdder(24, config.faStyle, false))),
      latchNl(std::make_shared<Netlist>(buildLatchRegister(16))),
      actNl(std::make_shared<Netlist>(
          buildSigmoidUnit(logisticPwlTable(), config.faStyle))),
      hiddenAct(static_cast<size_t>(config.hidden)),
      hidSums(static_cast<size_t>(config.hidden)),
      unitFlags(4 * 2 *
                static_cast<size_t>(std::max(config.hidden,
                                             config.outputs)) *
                static_cast<size_t>(std::max(config.inputs,
                                             config.hidden) + 1)),
      rowIn(static_cast<size_t>(config.inputs)),
      rowOut(static_cast<size_t>(config.outputs)),
      hidW(static_cast<size_t>(config.hidden) *
           static_cast<size_t>(config.inputs + 1)),
      outW(static_cast<size_t>(config.outputs) *
           static_cast<size_t>(config.hidden + 1)),
      maskWords(static_cast<size_t>(
                    std::max(config.inputs, config.hidden) + 64) / 64),
      nonzeroMask(2 *
                  static_cast<size_t>(std::max(config.hidden,
                                               config.outputs)) *
                  maskWords),
      busyLatchMask(nonzeroMask.size()),
      busyChainMask(nonzeroMask.size()),
      cornerMask(2 * maskWords)
{
    dtann_assert(logical.inputs <= cfg.inputs &&
                     logical.hidden <= cfg.hidden &&
                     logical.outputs <= cfg.outputs,
                 "logical network %d-%d-%d does not fit the %d-%d-%d "
                 "array (use the time-multiplexed wrapper)",
                 logical.inputs, logical.hidden, logical.outputs,
                 cfg.inputs, cfg.hidden, cfg.outputs);
    // A used row's logical weights sit at synapses [0, used fan-in)
    // and its bias at the physical fan-in.
    for (Layer pass : {Layer::Hidden, Layer::Output}) {
        bool hid = pass == Layer::Hidden;
        int used_fanin = hid ? logical.inputs : logical.hidden;
        int fanin = hid ? cfg.inputs : cfg.hidden;
        uint64_t *corner =
            &cornerMask[static_cast<size_t>(pass) * maskWords];
        for (int i = 0; i <= fanin; ++i)
            if (i < used_fanin || i == fanin)
                corner[i / 64] |= 1ull << (i % 64);
    }
}

HardwareBackend::~HardwareBackend() = default;

const Netlist &
HardwareBackend::unitNetlist(UnitKind kind) const
{
    switch (kind) {
      case UnitKind::WeightLatch:
        return *latchNl;
      case UnitKind::Multiplier:
        return *multNl;
      case UnitKind::AdderStage:
        return *addNl;
      case UnitKind::Activation:
        return *actNl;
      default:
        panic("bad unit kind");
    }
}

OperatorSim *
HardwareBackend::simFor(const UnitSite &site)
{
    auto it = faulty.find(site);
    return it == faulty.end() ? nullptr : it->second.get();
}

size_t
HardwareBackend::flagIndex(const UnitSite &site) const
{
    // [kind][layer][neuron][index]: every site of either backend
    // has neuron < max(hidden, outputs) and index <= max(inputs,
    // hidden).
    size_t neurons =
        static_cast<size_t>(std::max(cfg.hidden, cfg.outputs));
    size_t stride =
        static_cast<size_t>(std::max(cfg.inputs, cfg.hidden) + 1);
    return ((static_cast<size_t>(site.kind) * 2 +
             static_cast<size_t>(site.layer)) * neurons +
            static_cast<size_t>(site.neuron)) * stride +
        static_cast<size_t>(site.index);
}

size_t
HardwareBackend::maskRow(Layer pass, int neuron) const
{
    size_t neurons =
        static_cast<size_t>(std::max(cfg.hidden, cfg.outputs));
    return (static_cast<size_t>(pass) * neurons +
            static_cast<size_t>(neuron)) * maskWords;
}

void
HardwareBackend::markBusy(const UnitSite &pass)
{
    bool hid = pass.layer == Layer::Hidden;
    if (pass.neuron >= (hid ? cfg.hidden : cfg.outputs))
        return; // no row of this pass
    std::vector<uint64_t> *mask = &busyChainMask;
    int i = pass.index;
    switch (pass.kind) {
      case UnitKind::WeightLatch:
        mask = &busyLatchMask;
        break;
      case UnitKind::Multiplier:
        break;
      case UnitKind::AdderStage:
        ++i; // stage i - 1 folds synapse i into the chain
        break;
      case UnitKind::Activation:
        return;
    }
    if (i > (hid ? cfg.inputs : cfg.hidden))
        return;
    (*mask)[maskRow(pass.layer, pass.neuron) + static_cast<size_t>(i / 64)] |=
        1ull << (i % 64);
}

void
HardwareBackend::rebuildBusyMasks()
{
    std::fill(busyLatchMask.begin(), busyLatchMask.end(), 0);
    std::fill(busyChainMask.begin(), busyChainMask.end(), 0);
    int neurons = std::max(cfg.hidden, cfg.outputs);
    int stride = std::max(cfg.inputs, cfg.hidden) + 1;
    for (UnitKind kind : {UnitKind::WeightLatch, UnitKind::Multiplier,
                          UnitKind::AdderStage})
        for (Layer layer : {Layer::Hidden, Layer::Output})
            for (int n = 0; n < neurons; ++n)
                for (int i = 0; i < stride; ++i)
                    if (unitFlags[flagIndex({kind, layer, n, i})])
                        markBusy({kind, layer, n, i});
}

void
HardwareBackend::markUnit(const UnitSite &phys, uint8_t bit)
{
    dtann_assert(flagIndex(phys) < unitFlags.size(),
                 "site %s outside the array", phys.describe().c_str());
    int neurons = std::max(cfg.hidden, cfg.outputs);
    int stride = std::max(cfg.inputs, cfg.hidden) + 1;
    for (Layer layer : {Layer::Hidden, Layer::Output})
        for (int n = 0; n < neurons; ++n)
            for (int i = 0; i < stride; ++i) {
                UnitSite pass{phys.kind, layer, n, i};
                if (physicalSite(pass) == phys) {
                    unitFlags[flagIndex(pass)] |= bit;
                    markBusy(pass);
                }
            }
}

void
HardwareBackend::unmarkAll(uint8_t bit)
{
    for (uint8_t &f : unitFlags)
        f &= static_cast<uint8_t>(~bit);
    rebuildBusyMasks();
}

std::vector<InjectionRecord>
HardwareBackend::injectDefects(const UnitSite &pass_site, int count,
                               Rng &rng)
{
    // Key defects by the physical unit: a pass address given for a
    // shared (pass-multiplexed) unit lands on the same simulation
    // the forward paths look up.
    const UnitSite site = physicalSite(pass_site);
    markUnit(site, kHostsDefects);
    std::shared_ptr<const Netlist> nl;
    CleanFn clean;
    switch (site.kind) {
      case UnitKind::WeightLatch:
        // Feedback netlist: no pruned/batched path to feed.
        nl = latchNl;
        break;
      case UnitKind::Multiplier:
        nl = multNl;
        clean = cleanMultiplierSigned(16);
        break;
      case UnitKind::AdderStage:
        nl = addNl;
        clean = cleanAdder(24, false);
        break;
      case UnitKind::Activation:
        nl = actNl;
        clean = cleanSigmoidUnit(logisticPwlTable());
        break;
    }
    Injection inj = injectTransistorDefects(*nl, count, rng);
    std::vector<InjectionRecord> records = inj.records;

    // Merge with any defects already present at this site.
    auto it = faulty.find(site);
    if (it != faulty.end()) {
        FaultSet merged = it->second->evaluator().faults();
        merged.merge(inj.faults);
        Injection combined;
        combined.faults = std::move(merged);
        combined.records = it->second->faultRecords();
        combined.records.insert(combined.records.end(), records.begin(),
                                records.end());
        it->second = std::make_unique<OperatorSim>(
            nl, std::move(combined), std::move(clean));
    } else {
        Injection fresh;
        fresh.faults = std::move(inj.faults);
        fresh.records = records;
        faulty[site] = std::make_unique<OperatorSim>(
            nl, std::move(fresh), std::move(clean));
    }
    probes[site]; // ensure a probe exists
    return records;
}

void
HardwareBackend::clearDefects()
{
    faulty.clear();
    probes.clear();
    unmarkAll(kHostsDefects);
}

std::vector<UnitSite>
HardwareBackend::faultySites() const
{
    std::vector<UnitSite> sites;
    for (const auto &[site, sim] : faulty)
        sites.push_back(site);
    return sites;
}

bool
HardwareBackend::isFaulty(const UnitSite &site) const
{
    return faulty.find(physicalSite(site)) != faulty.end();
}

Fix16
HardwareBackend::bistMul(Layer layer, int neuron, int synapse, Fix16 w,
                         Fix16 x)
{
    return unitMul(layer, neuron, synapse, w, x);
}

Acc24
HardwareBackend::bistAdd(Layer layer, int neuron, int stage, Acc24 a,
                         Acc24 b)
{
    return unitAdd(layer, neuron, stage, a, b);
}

Fix16
HardwareBackend::bistAct(Layer layer, int neuron, Fix16 x)
{
    return unitAct(layer, neuron, x);
}

Fix16
HardwareBackend::bistLatchStore(Layer layer, int neuron, int synapse,
                                Fix16 d)
{
    return unitLatchStore(layer, neuron, synapse, d);
}

void
HardwareBackend::bypassUnit(const UnitSite &site)
{
    bypassed.insert(physicalSite(site));
    markUnit(physicalSite(site), kBypassed);
}

void
HardwareBackend::clearBypasses()
{
    bypassed.clear();
    unmarkAll(kBypassed);
}

bool
HardwareBackend::isBypassed(const UnitSite &site) const
{
    return bypassed.find(physicalSite(site)) != bypassed.end();
}

std::vector<UnitSite>
HardwareBackend::bypassedSites() const
{
    return {bypassed.begin(), bypassed.end()};
}

void
HardwareBackend::setActivationClamp(Layer layer, Fix16 lo, Fix16 hi)
{
    dtann_assert(static_cast<int16_t>(lo.bits()) <=
                     static_cast<int16_t>(hi.bits()),
                 "clamp window is empty");
    ActivationClamp &c = clamps[static_cast<size_t>(layer)];
    c.enabled = true;
    c.lo = lo;
    c.hi = hi;
}

void
HardwareBackend::clearActivationClamps()
{
    clamps[0] = ActivationClamp();
    clamps[1] = ActivationClamp();
    clampHitCount = 0;
}

const ActivationClamp &
HardwareBackend::activationClamp(Layer layer) const
{
    return clamps[static_cast<size_t>(layer)];
}

Fix16
HardwareBackend::clampValue(Layer layer, Fix16 x)
{
    const ActivationClamp &c = clamps[static_cast<size_t>(layer)];
    if (!c.enabled)
        return x;
    int16_t v = static_cast<int16_t>(x.bits());
    if (v < static_cast<int16_t>(c.lo.bits())) {
        ++clampHitCount;
        return c.lo;
    }
    if (v > static_cast<int16_t>(c.hi.bits())) {
        ++clampHitCount;
        return c.hi;
    }
    return x;
}

const DeviationProbe &
HardwareBackend::probe(const UnitSite &site) const
{
    auto it = probes.find(site);
    return it == probes.end() ? cleanProbe : it->second;
}

void
HardwareBackend::clearProbes()
{
    for (auto &[site, p] : probes)
        p = DeviationProbe();
}

Fix16
HardwareBackend::unitLatchStore(Layer layer, int neuron, int synapse,
                                Fix16 d)
{
    UnitSite pass{UnitKind::WeightLatch, layer, neuron, synapse};
    uint8_t flags = unitFlags[flagIndex(pass)];
    if (flags & kBypassed)
        return Fix16(); // latch disconnected: weight reads as zero
    OperatorSim *sim = flags ? simFor(physicalSite(pass)) : nullptr;
    if (!sim)
        return d;
    // Open the latch (EN=1) with D applied, then close it.
    uint64_t bits = static_cast<uint64_t>(d.bits());
    sim->apply(bits | (1ull << 16));
    uint64_t q = sim->apply(bits); // EN=0
    Fix16 stored = Fix16::fromRaw(static_cast<int16_t>(q & 0xffff));
    probes[pass].amplitude.add(
        std::abs(stored.toDouble() - d.toDouble()));
    return stored;
}

Fix16
HardwareBackend::unitMul(Layer layer, int neuron, int synapse, Fix16 w,
                         Fix16 x)
{
    UnitSite pass{UnitKind::Multiplier, layer, neuron, synapse};
    uint8_t flags = unitFlags[flagIndex(pass)];
    if (flags & kBypassed)
        return Fix16(); // product gated to zero
    OperatorSim *sim = flags ? simFor(physicalSite(pass)) : nullptr;
    Fix16 clean = Fix16::hwMul(w, x);
    if (!sim)
        return clean;
    uint64_t in = static_cast<uint64_t>(w.bits()) |
        (static_cast<uint64_t>(x.bits()) << 16);
    uint64_t product = sim->apply(in);
    Fix16 got = Fix16::fromRaw(static_cast<int16_t>(
        (product >> Fix16::fracBits) & 0xffff));
    probes[pass].amplitude.add(
        std::abs(got.toDouble() - clean.toDouble()));
    return got;
}

Acc24
HardwareBackend::unitAdd(Layer layer, int neuron, int stage, Acc24 a,
                         Acc24 b)
{
    UnitSite pass{UnitKind::AdderStage, layer, neuron, stage};
    uint8_t flags = unitFlags[flagIndex(pass)];
    if (flags & kBypassed)
        return a; // stage skipped: accumulator passes through
    OperatorSim *sim = flags ? simFor(physicalSite(pass)) : nullptr;
    Acc24 clean = Acc24::hwAdd(a, b);
    if (!sim)
        return clean;
    uint64_t in = static_cast<uint64_t>(a.bits()) |
        (static_cast<uint64_t>(b.bits()) << 24);
    uint64_t sum = sim->apply(in) & 0xffffffull;
    uint32_t u = static_cast<uint32_t>(sum);
    int32_t raw = (u & 0x800000u)
        ? static_cast<int32_t>(u | 0xff000000u)
        : static_cast<int32_t>(u);
    Acc24 got = Acc24::fromRaw(raw);
    probes[pass].amplitude.add(
        std::abs(got.toDouble() - clean.toDouble()));
    return got;
}

Fix16
HardwareBackend::unitAct(Layer layer, int neuron, Fix16 x)
{
    UnitSite pass{UnitKind::Activation, layer, neuron, 0};
    uint8_t flags = unitFlags[flagIndex(pass)];
    if (flags & kBypassed)
        return Fix16(); // neuron silenced
    OperatorSim *sim = flags ? simFor(physicalSite(pass)) : nullptr;
    Fix16 clean = logisticPwlFix(x);
    if (!sim)
        return clean;
    uint64_t y = sim->apply(static_cast<uint64_t>(x.bits()));
    Fix16 got = Fix16::fromRaw(static_cast<int16_t>(y & 0xffff));
    probes[pass].amplitude.add(
        std::abs(got.toDouble() - clean.toDouble()));
    return got;
}

void
HardwareBackend::unitMulLanes(Layer layer, int neuron, int synapse,
                              Fix16 w, const Fix16 *x, Fix16 *out,
                              size_t lanes)
{
    UnitSite pass{UnitKind::Multiplier, layer, neuron, synapse};
    uint8_t flags = unitFlags[flagIndex(pass)];
    if (flags & kBypassed) {
        for (size_t l = 0; l < lanes; ++l)
            out[l] = Fix16(); // product gated to zero
        return;
    }
    OperatorSim *sim = flags ? simFor(physicalSite(pass)) : nullptr;
    if (!sim) {
        for (size_t l = 0; l < lanes; ++l)
            out[l] = Fix16::hwMul(w, x[l]);
        return;
    }
    std::array<uint64_t, kMaxLanes> in, product;
    for (size_t l = 0; l < lanes; ++l)
        in[l] = static_cast<uint64_t>(w.bits()) |
            (static_cast<uint64_t>(x[l].bits()) << 16);
    sim->applyLanes(in.data(), product.data(), lanes);
    DeviationProbe &pr = probes[pass];
    // Probe updates in lane (= row) order: the Welford accumulator
    // is order-dependent, and bit-identity with the scalar path
    // requires the same per-site sequence.
    for (size_t l = 0; l < lanes; ++l) {
        Fix16 clean = Fix16::hwMul(w, x[l]);
        Fix16 got = Fix16::fromRaw(static_cast<int16_t>(
            (product[l] >> Fix16::fracBits) & 0xffff));
        pr.amplitude.add(std::abs(got.toDouble() - clean.toDouble()));
        out[l] = got;
    }
}

void
HardwareBackend::unitAddLanes(Layer layer, int neuron, int stage,
                              Acc24 *acc, const Acc24 *b, size_t lanes)
{
    UnitSite pass{UnitKind::AdderStage, layer, neuron, stage};
    uint8_t flags = unitFlags[flagIndex(pass)];
    if (flags & kBypassed)
        return; // stage skipped: accumulator passes through
    OperatorSim *sim = flags ? simFor(physicalSite(pass)) : nullptr;
    if (!sim) {
        for (size_t l = 0; l < lanes; ++l)
            acc[l] = Acc24::hwAdd(acc[l], b[l]);
        return;
    }
    std::array<uint64_t, kMaxLanes> in, sum;
    for (size_t l = 0; l < lanes; ++l)
        in[l] = static_cast<uint64_t>(acc[l].bits()) |
            (static_cast<uint64_t>(b[l].bits()) << 24);
    sim->applyLanes(in.data(), sum.data(), lanes);
    DeviationProbe &pr = probes[pass];
    for (size_t l = 0; l < lanes; ++l) {
        Acc24 clean = Acc24::hwAdd(acc[l], b[l]);
        uint32_t u = static_cast<uint32_t>(sum[l] & 0xffffffull);
        int32_t raw = (u & 0x800000u)
            ? static_cast<int32_t>(u | 0xff000000u)
            : static_cast<int32_t>(u);
        Acc24 got = Acc24::fromRaw(raw);
        pr.amplitude.add(std::abs(got.toDouble() - clean.toDouble()));
        acc[l] = got;
    }
}

void
HardwareBackend::unitActLanes(Layer layer, int neuron, const Fix16 *x,
                              Fix16 *out, size_t lanes)
{
    UnitSite pass{UnitKind::Activation, layer, neuron, 0};
    uint8_t flags = unitFlags[flagIndex(pass)];
    if (flags & kBypassed) {
        for (size_t l = 0; l < lanes; ++l)
            out[l] = Fix16(); // neuron silenced
        return;
    }
    OperatorSim *sim = flags ? simFor(physicalSite(pass)) : nullptr;
    if (!sim) {
        for (size_t l = 0; l < lanes; ++l)
            out[l] = logisticPwlFix(x[l]);
        return;
    }
    std::array<uint64_t, kMaxLanes> in, y;
    for (size_t l = 0; l < lanes; ++l)
        in[l] = static_cast<uint64_t>(x[l].bits());
    sim->applyLanes(in.data(), y.data(), lanes);
    DeviationProbe &pr = probes[pass];
    for (size_t l = 0; l < lanes; ++l) {
        Fix16 clean = logisticPwlFix(x[l]);
        Fix16 got =
            Fix16::fromRaw(static_cast<int16_t>(y[l] & 0xffff));
        pr.amplitude.add(std::abs(got.toDouble() - clean.toDouble()));
        out[l] = got;
    }
}

const Fix16 *
HardwareBackend::weightRow(Layer pass, int neuron) const
{
    return pass == Layer::Hidden
        ? &hidW[static_cast<size_t>(neuron) *
                static_cast<size_t>(cfg.inputs + 1)]
        : &outW[static_cast<size_t>(neuron) *
                static_cast<size_t>(cfg.hidden + 1)];
}

void
HardwareBackend::storeWeight(Layer pass, int neuron, int synapse,
                             Fix16 d)
{
    Fix16 stored = unitLatchStore(pass, neuron, synapse, d);
    bool hid = pass == Layer::Hidden;
    size_t stride = static_cast<size_t>((hid ? cfg.inputs : cfg.hidden) + 1);
    (hid ? hidW : outW)[static_cast<size_t>(neuron) * stride +
                        static_cast<size_t>(synapse)] = stored;
    uint64_t &word = nonzeroMask[maskRow(pass, neuron) +
                                 static_cast<size_t>(synapse / 64)];
    uint64_t bit = 1ull << (synapse % 64);
    word = stored.raw() != 0 ? word | bit : word & ~bit;
}

void
HardwareBackend::storeRow(Layer pass, int neuron,
                          std::span<const Fix16> weights)
{
    bool hid = pass == Layer::Hidden;
    int fanin = hid ? cfg.inputs : cfg.hidden;
    dtann_assert(neuron >= 0 && neuron < (hid ? cfg.hidden : cfg.outputs),
                 "physical neuron index out of range");
    dtann_assert(static_cast<int>(weights.size()) == fanin + 1,
                 "weight row arity mismatch");
    for (int i = 0; i <= fanin; ++i)
        storeWeight(pass, neuron, i, weights[static_cast<size_t>(i)]);
}

void
HardwareBackend::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == logical, "weight topology mismatch");
    for (Layer pass : {Layer::Hidden, Layer::Output}) {
        bool hid = pass == Layer::Hidden;
        std::span<const double> stage = w.stage(hid ? 0 : 1);
        int neurons = hid ? cfg.hidden : cfg.outputs;
        int fanin = hid ? cfg.inputs : cfg.hidden;
        int used_neurons = hid ? logical.hidden : logical.outputs;
        int used_fanin = hid ? logical.inputs : logical.hidden;
        const uint64_t *corner =
            &cornerMask[static_cast<size_t>(pass) * maskWords];
        for (int n = 0; n < neurons; ++n) {
            // Write the logical corner, every faulty or bypassed
            // latch, and every latch holding a nonzero value. Any
            // other latch is plain and already stores the 0 it would
            // be written, so skipping it changes nothing.
            size_t row = maskRow(pass, n);
            for (size_t wd = 0; wd < maskWords; ++wd) {
                uint64_t bits = busyLatchMask[row + wd] |
                    nonzeroMask[row + wd] |
                    (n < used_neurons ? corner[wd] : 0);
                for (; bits != 0; bits &= bits - 1) {
                    int i = static_cast<int>(wd * 64) +
                        std::countr_zero(bits);
                    // Bias synapse last, at both the logical and the
                    // physical fan-in.
                    int li = i < used_fanin ? i
                        : i == fanin        ? used_fanin
                                            : -1;
                    double v = 0.0;
                    if (n < used_neurons && li >= 0)
                        v = stage[static_cast<size_t>(n) *
                                      static_cast<size_t>(used_fanin + 1) +
                                  static_cast<size_t>(li)];
                    storeWeight(pass, n, i, Fix16::fromDouble(v));
                }
            }
        }
    }
}

template <class F>
void
HardwareBackend::forEachLiveSynapse(Layer pass, int neuron, F &&f) const
{
    // A skipped synapse stores 0 and runs through a plain multiplier
    // and a plain adder stage: hwMul(0, x) = 0 and hwAdd(acc, 0) =
    // acc, with no simulation, probe or counter touched.
    size_t row = maskRow(pass, neuron);
    for (size_t wd = 0; wd < maskWords; ++wd) {
        uint64_t bits = nonzeroMask[row + wd] | busyChainMask[row + wd];
        if (wd == 0)
            bits &= ~1ull; // synapse 0 opens the chain
        for (; bits != 0; bits &= bits - 1)
            f(static_cast<int>(wd * 64) + std::countr_zero(bits));
    }
}

std::vector<int>
HardwareBackend::liveSynapses(Layer pass, int neuron) const
{
    std::vector<int> live;
    forEachLiveSynapse(pass, neuron, [&](int i) { live.push_back(i); });
    return live;
}

void
HardwareBackend::forwardLayer(Layer pass, std::span<const Fix16> in,
                              std::span<Fix16> out)
{
    const Fix16 one = Fix16::fromDouble(1.0);
    int fanin = pass == Layer::Hidden ? cfg.inputs : cfg.hidden;
    int neurons = pass == Layer::Hidden ? cfg.hidden : cfg.outputs;
    for (int n = 0; n < neurons; ++n) {
        // Products: one multiplier per synapse, bias last, folded
        // into the neuron's adder chain.
        const Fix16 *weights = weightRow(pass, n);
        Acc24 acc = Acc24::fromFix16(
            unitMul(pass, n, 0, weights[0], in[0]));
        forEachLiveSynapse(pass, n, [&](int i) {
            Fix16 x = i < fanin ? in[static_cast<size_t>(i)] : one;
            Fix16 p = unitMul(pass, n, i, weights[i], x);
            acc = unitAdd(pass, n, i - 1, acc, Acc24::fromFix16(p));
        });
        if (pass == Layer::Hidden)
            hidSums[static_cast<size_t>(n)] = acc;
        // The clamp sits after the activation unit on the datapath
        // only; bistAct() reads the unit raw via unitAct().
        out[static_cast<size_t>(n)] =
            clampValue(pass, unitAct(pass, n, acc.toFix16Sat()));
    }
}

void
HardwareBackend::forwardLayerLanes(Layer pass,
                                   const std::vector<const Fix16 *> &in,
                                   const std::vector<Fix16 *> &out,
                                   size_t lanes)
{
    dtann_assert(lanes >= 1 && lanes <= kMaxLanes,
                 "lane count out of range");
    const Fix16 one = Fix16::fromDouble(1.0);
    int fanin = pass == Layer::Hidden ? cfg.inputs : cfg.hidden;
    int neurons = pass == Layer::Hidden ? cfg.hidden : cfg.outputs;
    if (pass == Layer::Hidden)
        hidSumsLanes.resize(lanes * static_cast<size_t>(cfg.hidden));
    std::array<Fix16, kMaxLanes> x, p;
    std::array<Acc24, kMaxLanes> acc, addend;
    for (int n = 0; n < neurons; ++n) {
        const Fix16 *weights = weightRow(pass, n);
        for (size_t l = 0; l < lanes; ++l)
            x[l] = in[l][0];
        unitMulLanes(pass, n, 0, weights[0], x.data(), p.data(), lanes);
        for (size_t l = 0; l < lanes; ++l)
            acc[l] = Acc24::fromFix16(p[l]);
        forEachLiveSynapse(pass, n, [&](int i) {
            for (size_t l = 0; l < lanes; ++l)
                x[l] = i < fanin ? in[l][i] : one;
            unitMulLanes(pass, n, i, weights[i], x.data(), p.data(),
                         lanes);
            for (size_t l = 0; l < lanes; ++l)
                addend[l] = Acc24::fromFix16(p[l]);
            unitAddLanes(pass, n, i - 1, acc.data(), addend.data(),
                         lanes);
        });
        // Mirror the scalar loop: the readable output latches hold
        // the last processed row's sums. The per-lane sums feed the
        // time-multiplexed batch path's key-logic accumulation.
        if (pass == Layer::Hidden) {
            hidSums[static_cast<size_t>(n)] = acc[lanes - 1];
            for (size_t l = 0; l < lanes; ++l)
                hidSumsLanes[l * static_cast<size_t>(cfg.hidden) +
                             static_cast<size_t>(n)] = acc[l];
        }
        for (size_t l = 0; l < lanes; ++l)
            x[l] = acc[l].toFix16Sat();
        unitActLanes(pass, n, x.data(), p.data(), lanes);
        // Clamp in lane (= row) order after the unit, mirroring the
        // scalar path bit for bit at every lane width.
        for (size_t l = 0; l < lanes; ++l)
            out[l][n] = clampValue(pass, p[l]);
    }
}

Activations
HardwareBackend::forward(std::span<const double> input)
{
    dtann_assert(static_cast<int>(input.size()) == logical.inputs,
                 "logical input arity mismatch");
    for (size_t i = 0; i < input.size(); ++i)
        rowIn[i] = Fix16::fromDouble(input[i]);
    forwardLayer(Layer::Hidden, rowIn, hiddenAct);
    forwardLayer(Layer::Output, hiddenAct, rowOut);

    Activations act(static_cast<size_t>(logical.hidden),
                    static_cast<size_t>(logical.outputs));
    for (int j = 0; j < logical.hidden; ++j)
        act.hidden()[static_cast<size_t>(j)] =
            hiddenAct[static_cast<size_t>(j)].toDouble();
    for (int k = 0; k < logical.outputs; ++k)
        act.output()[static_cast<size_t>(k)] =
            rowOut[static_cast<size_t>(k)].toDouble();
    return act;
}

std::vector<Activations>
HardwareBackend::forwardBatch(std::span<const std::vector<double>> inputs)
{
    size_t rows = inputs.size();
    std::vector<std::vector<Fix16>> phys(
        rows, std::vector<Fix16>(static_cast<size_t>(cfg.inputs)));
    for (size_t r = 0; r < rows; ++r) {
        dtann_assert(static_cast<int>(inputs[r].size()) ==
                         logical.inputs,
                     "logical input arity mismatch");
        for (size_t i = 0; i < inputs[r].size(); ++i)
            phys[r][i] = Fix16::fromDouble(inputs[r][i]);
    }

    std::vector<std::vector<Fix16>> hid(
        rows, std::vector<Fix16>(static_cast<size_t>(cfg.hidden)));
    std::vector<std::vector<Fix16>> outv(
        rows, std::vector<Fix16>(static_cast<size_t>(cfg.outputs)));
    size_t width = batchLaneWidth();
    for (size_t pos = 0; pos < rows; pos += width) {
        size_t lanes = std::min(width, rows - pos);
        std::vector<const Fix16 *> inPtr(lanes);
        std::vector<const Fix16 *> hidIn(lanes);
        std::vector<Fix16 *> hidPtr(lanes), outPtr(lanes);
        for (size_t l = 0; l < lanes; ++l) {
            inPtr[l] = phys[pos + l].data();
            hidIn[l] = hid[pos + l].data();
            hidPtr[l] = hid[pos + l].data();
            outPtr[l] = outv[pos + l].data();
        }
        forwardLayerLanes(Layer::Hidden, inPtr, hidPtr, lanes);
        forwardLayerLanes(Layer::Output, hidIn, outPtr, lanes);
    }

    std::vector<Activations> acts(rows);
    for (size_t r = 0; r < rows; ++r) {
        Activations &act = acts[r];
        act = Activations(static_cast<size_t>(logical.hidden),
                          static_cast<size_t>(logical.outputs));
        for (int j = 0; j < logical.hidden; ++j)
            act.hidden()[static_cast<size_t>(j)] =
                hid[r][static_cast<size_t>(j)].toDouble();
        for (int k = 0; k < logical.outputs; ++k)
            act.output()[static_cast<size_t>(k)] =
                outv[r][static_cast<size_t>(k)].toDouble();
    }
    return acts;
}

bool
HardwareBackend::batchPure() const
{
    for (const auto &[site, sim] : faulty)
        if (!sim->batched())
            return false;
    return true;
}

SimCounters
HardwareBackend::simCounters() const
{
    SimCounters c;
    for (const auto &[site, sim] : faulty)
        c.merge(sim->counters());
    return c;
}

std::unique_ptr<HardwareBackend>
makeBackend(BackendKind kind, const AcceleratorConfig &config,
            MlpTopology logical)
{
    switch (kind) {
      case BackendKind::Spatial:
        return std::make_unique<SpatialBackend>(config, logical);
      case BackendKind::Systolic:
        return std::make_unique<SystolicBackend>(config, logical);
      default:
        panic("bad backend kind");
    }
}

} // namespace dtann
