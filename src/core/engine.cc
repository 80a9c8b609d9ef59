#include "core/engine.hh"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "common/json.hh"
#include "common/logging.hh"

namespace dtann {

std::string
CellKey::toString() const
{
    return campaign + "/" + task + "/" + variant + "/" +
        std::to_string(rep);
}

std::string
CampaignRunConfig::jsonRunFields() const
{
    std::string out = "\"repetitions\":" + std::to_string(repetitions);
    out += ",\"seed\":" + std::to_string(seed);
    out += ",\"threads\":" + std::to_string(threads);
    return out;
}

void
CampaignRunConfig::readRunFields(const JsonValue &v)
{
    repetitions = jsonGetInt(v, "repetitions", repetitions, 1,
                             1 << 30);
    seed = jsonGetUint(v, "seed", seed);
    threads = jsonGetInt(v, "threads", threads, 0, 4096);
}

std::string
CampaignConfig::jsonCampaignFields() const
{
    std::string out = jsonRunFields();
    out += ",\"tasks\":[";
    for (size_t i = 0; i < tasks.size(); ++i) {
        if (i > 0)
            out += ",";
        out += jsonString(tasks[i]);
    }
    out += "],\"folds\":" + std::to_string(folds);
    out += ",\"rows\":" + std::to_string(rows);
    out += ",\"epoch_scale\":" + jsonNumber(epochScale);
    out += ",\"retrain_scale\":" + jsonNumber(retrainScale);
    out += ",\"array\":" + array.toJson();
    out += ",\"weighting\":" + jsonString(siteWeightingName(weighting));
    out += ",\"backend\":" + jsonString(backendName(backend));
    return out;
}

void
CampaignConfig::readCampaignFields(const JsonValue &v)
{
    readRunFields(v);
    tasks = jsonGetStringArray(v, "tasks", tasks);
    folds = jsonGetInt(v, "folds", folds, 2, 1 << 20);
    rows = static_cast<size_t>(
        jsonGetInt(v, "rows", static_cast<int>(rows), 0, 1 << 30));
    epochScale = jsonGetDouble(v, "epoch_scale", epochScale);
    retrainScale = jsonGetDouble(v, "retrain_scale", retrainScale);
    if (const JsonValue *a = v.find("array"))
        array = AcceleratorConfig::fromJson(*a);
    std::string w =
        jsonGetString(v, "weighting", siteWeightingName(weighting));
    if (!siteWeightingFromName(w, weighting))
        throw JsonError("unknown weighting '" + w +
                        "' (expected uniform or transistor)");
    std::string b = jsonGetString(v, "backend", backendName(backend));
    if (!backendFromName(b, backend))
        throw JsonError("unknown backend '" + b + "' (expected one "
                        "of: " + backendNameList() + ")");
}

CampaignEngine::CampaignEngine(const CampaignRunConfig &config)
    : owned(config.sharedPool != nullptr
                ? nullptr
                : std::make_unique<ThreadPool>(config.threads)),
      pool(config.sharedPool != nullptr ? config.sharedPool
                                        : owned.get()),
      cancel(config.cancel)
{
}

CampaignEngine::CampaignEngine(int threads)
    : owned(std::make_unique<ThreadPool>(threads)), pool(owned.get())
{
}

void
CampaignEngine::parallelFor(size_t n,
                            const std::function<void(size_t)> &fn)
{
    if (cancel == nullptr) {
        pool->parallelFor(n, fn);
        return;
    }
    // Cooperative cancellation: raised mid-batch, the remaining
    // indices become no-ops, the batch drains quickly, and the
    // campaign unwinds here instead of producing a partial result.
    pool->parallelFor(n, [&](size_t i) {
        if (cancel->load(std::memory_order_relaxed))
            return;
        fn(i);
    });
    if (cancel->load(std::memory_order_relaxed))
        throw CampaignCancelled();
}

void
CampaignEngine::runTable(const CampaignRunConfig &config,
                         const std::vector<CampaignCell> &cells,
                         const CellHooks &hooks)
{
    CellCache *journal = config.journal;
    std::vector<size_t> claims(cells.size());
    std::iota(claims.begin(), claims.end(), size_t{0});
    std::stable_sort(claims.begin(), claims.end(),
                     [&](size_t a, size_t b) {
                         return cells[a].defects > cells[b].defects;
                     });
    std::mutex mu;
    size_t done = 0;
    parallelFor(cells.size(), [&](size_t claim) {
        size_t i = claims[claim];
        const CellKey &key = cells[i].key;
        std::string payload;
        bool replayed = false;
        if (journal != nullptr && journal->lookup(key, payload)) {
            try {
                hooks.decode(i, jsonParse(payload));
                replayed = true;
            } catch (const JsonError &e) {
                // Corrupt journals degrade to recomputation, never
                // to a crash.
                warn("journaled cell %s is corrupt (%s); recomputing",
                     key.toString().c_str(), e.what());
            }
        }
        if (!replayed) {
            // Sharded worker: cells owned by other shards are left
            // for their processes; the merged journals replay them.
            if (config.shardCount > 1 &&
                i % static_cast<size_t>(config.shardCount) !=
                    static_cast<size_t>(config.shardIndex))
                return;
            hooks.compute(i);
            if (journal != nullptr)
                journal->store(key, hooks.encode(i));
        }
        if (!config.onCellDone)
            return;
        CellReport report = hooks.report(i);
        std::lock_guard<std::mutex> lk(mu);
        report.cellsDone = ++done;
        report.cellsTotal = cells.size();
        config.onCellDone(report);
    });
}

} // namespace dtann
