#include "layers.hh"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

/** Every per-layer metric with its unit (BENCHMARK.json per_layer). */
const std::vector<std::pair<const char *, const char *>> kMetrics = {
    {"circuit.scalar_vectors", "count"},
    {"circuit.batch_vectors", "count"},
    {"circuit.gate_evals", "count"},
    {"circuit.batch_gate_sweeps", "count"},
    {"circuit.lane_occupancy", "ratio"},
    {"circuit.scalar_fallback_rate", "ratio"},
    {"data.synth_s", "s"},
    {"data.fold_split_s", "s"},
    {"ann.baseline_train_s", "s"},
    {"ann.retrain_s", "s"},
    {"ann.eval_s", "s"},
    {"ann.retrain_vectors", "count"},
    {"ann.eval_vectors", "count"},
    {"core.make_backend_s", "s"},
    {"core.inject_s", "s"},
    {"core.cell_self_s", "s"},
    {"core.cells", "count"},
    {"core.cell_p50_ms", "ms"},
    {"core.cell_max_ms", "ms"},
    {"core.worker_idle_frac", "ratio"},
    {"mitigate.bist_s", "s"},
    {"mitigate.run_s.noop", "s"},
    {"mitigate.run_s.retrain", "s"},
    {"mitigate.run_s.bypass", "s"},
    {"mitigate.run_s.clamp", "s"},
    {"rtl.build_netlist_s", "s"},
    {"transistor.inject_s", "s"},
    {"rtl.gate_inject_s", "s"},
    {"rtl.sim_build_s", "s"},
    {"rtl.apply_lanes_s", "s"},
    {"rtl.ns_per_vector", "ns"},
    {"service.journal_lookup_s", "s"},
    {"service.journal_store_s", "s"},
    {"service.journal_bytes", "bytes"},
    {"server.post_jobs_ms", "ms"},
    {"server.get_status_ms", "ms"},
    {"server.get_result_ms", "ms"},
    {"server.queue_wait_s", "s"},
    {"server.task_cache_hit_rate", "ratio"},
    {"server.netlist_cache_hit_rate", "ratio"},
    {"server.task_cache_misses", "count"},
    {"server.state_dir_bytes", "bytes"},
    {"client.submit_s", "s"},
    {"client.poll_s", "s"},
    {"client.result_s", "s"},
    {"client.polls_per_job", "count"},
    {"client.poll_useful_frac", "ratio"},
    {"trace.untraced_wall_s", "s"},
    {"trace.traced_wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.runner_wall_s", "s"},
    {"trace.runner_gap_s", "s"},
    {"trace.uncovered_frac", "ratio"},
    {"trace.replayed_cells", "count"},
};

/** The metric a span's self time lands in ("" = none). */
std::string
metricForSpan(const std::string &span)
{
    const std::string run = "mitigate.run.";
    if (span.rfind(run, 0) == 0)
        return "mitigate.run_s." + span.substr(run.size());
    if (span == "core.cell")
        return "core.cell_self_s";
    if (span == "setup.task")
        return "";
    return span + "_s";
}

} // namespace

LayerMetrics::LayerMetrics()
{
    for (const auto &[name, unit] : kMetrics)
        m[name] = {0.0, unit};
}

double &
LayerMetrics::at(const std::string &name)
{
    auto it = m.find(name);
    if (it == m.end())
        throw std::logic_error("unknown per-layer metric " + name);
    return it->second.first;
}

void
LayerMetrics::set(const std::string &name, double value)
{
    at(name) = value;
}

void
LayerMetrics::add(const std::string &name, double value)
{
    at(name) += value;
}

void
LayerMetrics::scale(const std::string &name, double factor)
{
    at(name) *= factor;
}

void
LayerMetrics::addSim(const dtann::SimCounters &sim)
{
    add("circuit.scalar_vectors", static_cast<double>(sim.scalarVectors));
    add("circuit.batch_vectors", static_cast<double>(sim.batchVectors));
    add("circuit.gate_evals", static_cast<double>(sim.gateEvals));
    add("circuit.batch_gate_sweeps",
        static_cast<double>(sim.batchGateSweeps));
    set("circuit.lane_occupancy", sim.laneOccupancy());
    set("circuit.scalar_fallback_rate", sim.scalarFallbackRate());
}

void
LayerMetrics::addSeamCells(
    const std::map<std::string, TimedJournal::Cell> &cells, int threads)
{
    if (cells.empty())
        return;
    std::vector<double> ms;
    double busy = 0.0, first = cells.begin()->second.start,
           last = cells.begin()->second.end;
    for (const auto &[key, c] : cells) {
        ms.push_back(1e3 * (c.end - c.start));
        busy += c.end - c.start;
        first = std::min(first, c.start);
        last = std::max(last, c.end);
    }
    set("core.cells", static_cast<double>(cells.size()));
    set("core.cell_p50_ms", median(ms));
    set("core.cell_max_ms", *std::max_element(ms.begin(), ms.end()));
    double span = (last - first) * threads;
    set("core.worker_idle_frac", span > 0 ? 1.0 - busy / span : 0.0);
}

void
checkReplay(const ReplayResult &replay,
            const std::map<std::string, std::string> &journal,
            Report &report)
{
    for (const CellReplay &c : replay.cells) {
        auto it = journal.find(c.trace.id);
        if (it == journal.end())
            report.fail("replayed cell " + c.trace.id +
                        " is not in the journal");
        else if (it->second != c.payload)
            report.fail("replayed cell " + c.trace.id +
                        " differs from its journaled payload");
    }
}

void
LayerMetrics::addReplay(
    const ReplayResult &replay,
    const std::map<std::string, TimedJournal::Cell> &seam)
{
    std::vector<Trace> traces = replay.setup;
    traces.insert(traces.end(), replay.shadow.begin(), replay.shadow.end());
    double seamTime = 0.0, uncovered = 0.0;
    for (const CellReplay &c : replay.cells) {
        traces.push_back(c.trace);
        add("ann.retrain_vectors", static_cast<double>(c.retrainVectors));
        add("ann.eval_vectors", static_cast<double>(c.evalVectors));
        auto s = seam.find(c.trace.id);
        if (s != seam.end()) {
            double d = s->second.end - s->second.start;
            seamTime += d;
            uncovered += d - childCovered(c.trace);
        }
    }
    add("trace.replayed_cells", static_cast<double>(replay.cells.size()));
    if (seamTime > 0)
        set("trace.uncovered_frac", uncovered / seamTime);

    for (const CellReplay &c : replay.cells)
        operatorVectors += c.operatorVectors;
    for (const auto &[span, self] : selfTimes(traces)) {
        std::string metric = metricForSpan(span);
        if (!metric.empty())
            add(metric, self);
    }
    if (operatorVectors > 0)
        set("rtl.ns_per_vector",
            1e9 * at("rtl.apply_lanes_s") /
                static_cast<double>(operatorVectors));
}

void
LayerMetrics::emit(Report &report) const
{
    for (const auto &[name, v] : m)
        report.set(name, v.first, v.second);
}

} // namespace perfbench
