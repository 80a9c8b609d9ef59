/**
 * @file
 * Ablation: full-adder implementation styles (9x NAND2 vs 28T
 * mirror adder with complex CMOS gates).
 *
 * The paper's injection framework exists precisely to "assess
 * different implementations of arithmetic operators"; this bench
 * compares transistor budget, defect masking, and the Fig 5
 * distribution divergence across the two styles.
 */

#include "bench_util.hh"
#include "circuit/evaluator.hh"
#include "common/json.hh"
#include "core/campaign.hh"
#include "core/cost_model.hh"
#include "rtl/adder.hh"
#include "rtl/fault_inject.hh"

using namespace dtann;

namespace {

/** Fraction of single transistor defects that change the adder's
 *  input/output function at all. */
double
maskedDefectFraction(FaStyle style, int trials, Rng &rng)
{
    Netlist nl = buildRippleAdder(4, style, true);
    int masked = 0;
    for (int t = 0; t < trials; ++t) {
        Injection inj = injectTransistorDefects(nl, 1, rng);
        Evaluator ev(nl, std::move(inj.faults));
        bool differs = false;
        // Two passes over all inputs so MEM effects surface.
        for (int pass = 0; pass < 2 && !differs; ++pass)
            for (uint64_t in = 0; in < 256 && !differs; ++in) {
                uint64_t a = in & 0xf, b = in >> 4;
                ev.setInputRange(0, 4, a);
                ev.setInputRange(4, 4, b);
                ev.evaluate();
                differs = ev.outputRange(0, 5) != a + b;
            }
        masked += differs ? 0 : 1;
    }
    return static_cast<double>(masked) / trials;
}

const char *
styleName(FaStyle s)
{
    return s == FaStyle::Nand9 ? "NAND9" : "Mirror";
}

} // namespace

int
main()
{
    benchBanner("Ablation: full-adder style (NAND9 vs mirror)",
                "Temam, ISCA 2012, Section III (operator variants)");

    int trials = scaled(600, 200);
    int reps = scaled(300, 100);
    Rng rng(experimentSeed());

    TextTable t({"style", "adder T/bit", "array transistors",
                 "array area mm^2", "masked 1-defect frac",
                 "fig5 TV @20 defects"});
    std::string styles_json;
    SimCounters sim;
    for (FaStyle style : {FaStyle::Nand9, FaStyle::Mirror}) {
        Netlist bit = buildRippleAdder(1, style, true);
        AcceleratorConfig cfg;
        cfg.faStyle = style;
        CostModel cm(cfg);
        double masked = maskedDefectFraction(style, trials, rng);
        Fig5Config f5cfg;
        f5cfg.op = Fig5Operator::Adder4;
        f5cfg.defects = 20;
        f5cfg.repetitions = reps;
        f5cfg.seed = experimentSeed() + static_cast<uint64_t>(style);
        f5cfg.style = style;
        Fig5Result f5 = runFig5({f5cfg}).front();
        sim.merge(f5.sim);
        double tv = f5.trans.totalVariation(f5.none);
        t.addRow({styleName(style),
                  std::to_string(bit.transistorCount()),
                  std::to_string(cm.arrayTransistors()),
                  fmtDouble(cm.accelerator().areaMm2, 2),
                  fmtDouble(masked, 3), fmtDouble(tv, 4)});
        if (!styles_json.empty())
            styles_json += ",";
        styles_json += std::string("{\"style\":") +
            jsonString(styleName(style)) + ",\"adder_t_per_bit\":" +
            std::to_string(bit.transistorCount()) +
            ",\"array_transistors\":" +
            std::to_string(cm.arrayTransistors()) + ",\"area_mm2\":" +
            jsonNumber(cm.accelerator().areaMm2) +
            ",\"masked_defect_fraction\":" + jsonNumber(masked) +
            ",\"fig5_tv_at_20_defects\":" + jsonNumber(tv) + "}";
    }
    t.print(std::cout);
    maybeWriteJson(
        "ablation_fastyle",
        campaignEnvelope("ablation_fastyle",
                         "{\"trials\":" + std::to_string(trials) +
                             ",\"repetitions\":" +
                             std::to_string(reps) + "}",
                         experimentSeed(), sim,
                         "{\"styles\":[" + styles_json + "]}"));
    std::printf("\n(the cost model is calibrated at the NAND9 "
                "point; the mirror adder trades ~22%% fewer adder "
                "transistors for complex-gate fault behaviour)\n");
    return 0;
}
