#include "checks.hh"

#include <optional>
#include <sstream>

#include "bench.hh"
#include "common/json.hh"
#include "common/stats.hh"
#include "core/engine.hh"
#include "service/plan.hh"

using namespace dtann;

namespace perfbench {

std::map<std::string, std::string>
readJournal(const std::string &path)
{
    std::map<std::string, std::string> cells;
    std::istringstream in(readFile(path));
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
        if (header) {
            header = false;
            continue;
        }
        if (line.empty())
            continue;
        JsonValue v = jsonParse(line);
        cells[v.at("cell").asString()] = v.at("payload").asString();
    }
    return cells;
}

namespace {

bool
inUnit(double x)
{
    return x >= 0.0 && x <= 1.0;
}

} // namespace

std::vector<std::string>
checkEnvelope(const ScenarioSpec &spec, const std::string &envelope,
              const std::map<std::string, std::string> &journal)
{
    std::vector<std::string> errors;
    auto bad = [&](const std::string &what) {
        errors.push_back(spec.name + ": " + what);
    };
    JsonValue env;
    try {
        env = jsonParse(envelope);
    } catch (const std::exception &e) {
        bad(std::string("envelope does not parse: ") + e.what());
        return errors;
    }
    if (env.at("kind").asString() != spec.kind)
        bad("envelope kind " + env.at("kind").asString());

    const size_t planned = planSpec(spec).cells;
    if (journal.size() != planned)
        bad("journal holds " + std::to_string(journal.size()) +
            " cells, plan has " + std::to_string(planned));

    // Cells and accuracies as the results report them; sim totals
    // per curve.
    size_t cells = 0;
    SimCounters curves;
    for (const JsonValue &r : env.at("results").items()) {
        curves.merge(SimCounters::fromJson(r.at("sim")));
        if (spec.kind == "fig5") {
            size_t reps = static_cast<size_t>(
                r.at("repetitions").asInt(0, INT32_MAX));
            cells += reps;
            for (const char *h : {"none", "gate", "trans"})
                if (IntHistogram::fromJson(r.at("histograms").at(h))
                        .total() != reps * 256)
                    bad(std::string("fig5 histogram '") + h +
                        "' does not hold 256 outputs per repetition");
            continue;
        }
        for (const JsonValue &p : r.at("points").items()) {
            if (!inUnit(p.at("accuracy").asNumber()))
                bad("accuracy outside [0,1]");
            if (spec.kind == "mitigation") {
                if (!inUnit(p.at("coverage").asNumber()))
                    bad("coverage outside [0,1]");
                cells += static_cast<size_t>(
                    p.at("count").asInt(0, INT32_MAX));
            } else {
                cells += p.at("defects").asInt() == 0
                    ? 1
                    : static_cast<size_t>(spec.runConfig().repetitions);
            }
        }
    }
    if (cells != planned)
        bad("results cover " + std::to_string(cells) +
            " cells, plan has " + std::to_string(planned));

    // Re-aggregate the results from the journaled cells, in cell
    // order, and require the envelope to match exactly.
    auto payload = [&](const std::string &task, const std::string &variant,
                       uint64_t rep) -> std::optional<JsonValue> {
        auto it = journal.find(
            CellKey{spec.kind, task, variant, rep}.toString());
        if (it == journal.end())
            return std::nullopt;
        return jsonParse(it->second);
    };
    for (const JsonValue &r : env.at("results").items()) {
        if (spec.kind == "fig5") {
            std::string op = r.at("operator").asString();
            std::string variant =
                std::string("d") + std::to_string(r.at("defects").asInt());
            IntHistogram h[3];
            const char *names[3] = {"none", "gate", "trans"};
            for (uint64_t rep = 0;; ++rep) {
                std::optional<JsonValue> p = payload(op, variant, rep);
                if (!p)
                    break;
                for (int k = 0; k < 3; ++k)
                    h[k].merge(IntHistogram::fromJson(p->at(names[k])));
            }
            for (int k = 0; k < 3; ++k)
                if (h[k].toJson() !=
                    IntHistogram::fromJson(r.at("histograms").at(names[k]))
                        .toJson())
                    bad(op + "/" + variant + " histogram '" + names[k] +
                        "' differs from its journaled cells");
            continue;
        }
        std::string task = r.at("task").asString();
        std::string suffix = spec.kind == "mitigation"
            ? std::string(":") + r.at("strategy").asString()
            : std::string();
        const std::vector<JsonValue> &points = r.at("points").items();
        for (size_t v = 0; v < points.size(); ++v) {
            std::string variant = "v";
            variant += std::to_string(v);
            variant += ":d";
            variant += std::to_string(points[v].at("defects").asInt());
            variant += suffix;
            RunningStat acc;
            for (uint64_t rep = 0;; ++rep) {
                std::optional<JsonValue> p = payload(task, variant, rep);
                if (!p)
                    break;
                acc.add(p->at("accuracy").asNumber());
            }
            if (jsonNumber(acc.mean()) !=
                jsonNumber(points[v].at("accuracy").asNumber()))
                bad(task + "/" + variant +
                    " accuracy differs from the mean of its journaled "
                    "cells");
        }
    }

    SimCounters cellSum;
    for (const auto &[key, payload] : journal) {
        JsonValue p = jsonParse(payload);
        cellSum.merge(SimCounters::fromJson(p.at("sim")));
        if (const JsonValue *acc = p.find("accuracy"))
            if (!inUnit(acc->asNumber()))
                bad("cell " + key + " accuracy outside [0,1]");
    }
    std::string total = SimCounters::fromJson(env.at("sim")).toJson();
    if (curves.toJson() != total)
        bad("envelope sim differs from the sum over its results");
    if (cellSum.toJson() != total)
        bad("envelope sim differs from the sum over journaled cells");
    return errors;
}

std::string
digestMaterial(const std::string &envelope)
{
    size_t seed = envelope.find(",\"seed\":");
    size_t sim = envelope.find(",\"sim\":", seed);
    size_t results = envelope.find(",\"results\":", sim);
    size_t end = envelope.find_last_of('}');
    if (seed == std::string::npos || sim == std::string::npos ||
        results == std::string::npos || end == std::string::npos)
        return envelope;
    return "sim=" + envelope.substr(sim + 7, results - sim - 7) +
        "\nresults=" + envelope.substr(results + 11, end - results - 11) +
        "\n";
}

SimCounters
envelopeSim(const std::string &envelope)
{
    return SimCounters::fromJson(jsonParse(envelope).at("sim"));
}

} // namespace perfbench
