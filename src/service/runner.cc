#include "service/runner.hh"

#include <cstdlib>

#include "common/env.hh"
#include "common/json.hh"

namespace dtann {

namespace {

/**
 * Config echo for the result envelope. The worker thread count is
 * an execution knob, not campaign data — results are bit-identical
 * at any width — so it is normalized to 0 here, keeping the whole
 * export reproducible across widths (and across journal resumes
 * that change the width).
 */
template <typename Config>
std::string
echoJson(const Config &config)
{
    Config echo = config;
    echo.threads = 0;
    return echo.toJson();
}

/** Merge @p results' work into @p r and wrap them in the envelope. */
template <typename Config, typename Result>
std::string
envelope(ScenarioResult &r, const Config &config,
         const std::vector<Result> &results)
{
    for (const Result &res : results)
        r.sim.merge(res.sim);
    return campaignEnvelope(r.kind, echoJson(config), config.seed, r.sim,
                            toJson(results));
}

} // namespace

ScenarioResult
runScenario(const ScenarioSpec &spec)
{
    ScenarioResult r;
    r.kind = spec.kind;
    r.name = spec.name.empty() ? spec.kind : spec.name;

    // The cell runner reports every cell it resolves (computed or
    // replayed) with a running count; that count is the result's
    // cell total. The caller's own callback still sees every report.
    ScenarioSpec run = spec;
    run.runConfig().onCellDone =
        [&r, forward = spec.runConfig().onCellDone](const CellReport &c) {
            r.cells = c.cellsDone;
            if (forward)
                forward(c);
        };

    if (spec.kind == "fig5") {
        r.fig5 = runFig5(run.fig5.expand());
        r.json = envelope(r, spec.fig5, r.fig5);
    } else if (spec.kind == "fig10") {
        r.fig10 = runFig10(run.fig10);
        r.json = envelope(r, spec.fig10, r.fig10);
    } else if (spec.kind == "fig11") {
        r.fig11 = runFig11(run.fig11);
        r.json = envelope(r, spec.fig11, r.fig11);
    } else {
        r.mitigation = runMitigationCampaign(run.mitigation);
        r.json = envelope(r, spec.mitigation, r.mitigation);
    }
    return r;
}

void
applyEnvOverrides(ScenarioSpec &spec)
{
    CampaignRunConfig &run = spec.runConfig();
    // experimentSeed() falls back to the repo default when DTANN_SEED
    // is unset — only an explicitly set knob may beat the spec.
    if (std::getenv("DTANN_SEED") != nullptr)
        run.seed = experimentSeed();
    if (threadCount() != 0)
        run.threads = threadCount();
}

} // namespace dtann
