#include "service/plan.hh"

#include "common/json.hh"

namespace dtann {

SpecPlan
planSpec(const ScenarioSpec &spec)
{
    std::vector<CampaignCell> cells;
    if (spec.kind == "fig5")
        cells = fig5Cells(spec.fig5.expand());
    else if (spec.kind == "fig10")
        cells = fig10Cells(spec.fig10);
    else if (spec.kind == "fig11")
        cells = fig11Cells(spec.fig11);
    else if (spec.kind == "mitigation")
        cells = mitigationCells(spec.mitigation);
    else
        throw JsonError("unknown campaign kind '" + spec.kind + "'");

    // Every (task, variant) group is a run of repetitions that
    // starts at rep 0.
    SpecPlan plan;
    plan.cells = cells.size();
    for (const CampaignCell &c : cells) {
        if (c.key.rep == 0)
            plan.rows.push_back({c.key.task, c.key.variant, 0});
        ++plan.rows.back().reps;
    }
    return plan;
}

} // namespace dtann
