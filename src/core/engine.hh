/**
 * @file
 * Parallel campaign engine and its cell runner.
 *
 * The paper's defect-injection campaigns (Figs 5/10/11 and the
 * ablations) are embarrassingly parallel: tasks x defect counts x
 * ~100 faulty-network repetitions, each an independent
 * inject -> retrain -> measure run. Each campaign kind lists them
 * once as a flat table of CampaignCells, and runCells() is the one
 * runner of such tables: journal replay, shard filter, store and
 * progress live there, and a kind supplies only a payload type
 * (toJson/fromJson), a compute hook and a fold.
 *
 * Determinism: every cell derives all of its randomness with
 * Rng::substream(seed, {stream, task, variant, rep}) — counter-based
 * splitting, a pure function of the cell coordinates — and results
 * are folded in cell-index order after the parallel phase, whatever
 * order the cells were claimed in.
 * Campaign output is therefore bit-identical for any thread count,
 * including 1 (covered by EngineDeterminism tests).
 */

#ifndef DTANN_CORE_ENGINE_HH
#define DTANN_CORE_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/accelerator.hh"
#include "core/injector.hh"

namespace dtann {

class JsonValue;          // common/json.hh
class SharedContextCache; // core/campaign.hh

/**
 * Thrown by CampaignEngine::parallelFor when the campaign's cancel
 * flag (CampaignRunConfig::cancel) is raised: remaining cells are
 * skipped, the batch drains, and the campaign unwinds through the
 * runner without producing a result. Journaled cells survive, so a
 * cancelled campaign resubmitted against the same journal resumes
 * where it stopped.
 */
struct CampaignCancelled : std::runtime_error
{
    CampaignCancelled() : std::runtime_error("campaign cancelled") {}
};

/** Progress report for one finished campaign cell. */
struct CellReport
{
    std::string task;  ///< task name
    int defects;       ///< defect count of the cell
    int rep;           ///< repetition index within (task, defects)
    double accuracy;   ///< cell outcome
    size_t cellsDone = 0;  ///< cells resolved so far (including this one)
    size_t cellsTotal = 0; ///< total cells in the campaign
};

/**
 * Per-cell progress callback. Invoked from worker threads but
 * serialized by the engine, so implementations need no locking.
 * Completion *order* is scheduling-dependent; the campaign results
 * themselves are not.
 */
using ProgressCallback = std::function<void(const CellReport &)>;

/**
 * Stable address of one campaign cell in a results journal.
 *
 * Cells are independent, deterministic work units: all of a cell's
 * randomness derives from Rng::substream(seed, {root, task, variant,
 * rep}), so a journaled cell result keyed by these coordinates can
 * be replayed into a resumed campaign bit-identically. The variant
 * component is a self-describing string (e.g. "v2:d6", or
 * "v1:d4:bypass" for mitigation cells) because different campaign
 * kinds sweep different axes.
 */
struct CellKey
{
    std::string campaign; ///< campaign kind ("fig5", "fig10", ...)
    std::string task;     ///< task or operator name
    std::string variant;  ///< swept-axis coordinates within the task
    uint64_t rep = 0;     ///< repetition index within the variant

    /** Canonical "campaign/task/variant/rep" form (map key). */
    std::string toString() const;
};

/**
 * Checkpoint store consulted by CampaignEngine::runCells(): before a
 * cell is computed, lookup() may produce the journaled payload of a
 * previous run (the cell is then skipped); after a cell is
 * computed, store() persists its payload. A computed cell's lookup()
 * and store() run on the same worker thread, with the computation
 * between them. Payloads are JSON produced and parsed by the
 * campaign that owns the cell, and round-trip exactly, so a resumed
 * campaign is bit-identical to an uninterrupted one. Both methods
 * are called from worker threads and must be thread-safe.
 */
class CellCache
{
  public:
    virtual ~CellCache() = default;

    /** @return true and the payload when @p key is journaled. */
    virtual bool lookup(const CellKey &key, std::string &payload) = 0;

    /** Persist a freshly computed cell result. */
    virtual void store(const CellKey &key,
                       const std::string &payload) = 0;
};

/**
 * One row of a campaign's cell table: its journal key plus the
 * coordinates its compute hook reads. The row's flat index is what
 * sharding filters on and what the fold follows; its defect count
 * only orders the claims (see CampaignEngine::runCells()).
 */
struct CampaignCell
{
    CellKey key;
    size_t task = 0;     ///< index into the task list (fig5: variants)
    size_t variant = 0;  ///< index into the swept defect counts
    size_t strategy = 0; ///< index into the mitigation lineup
    int defects = 0;     ///< defects the cell injects (its cost proxy)
};

/**
 * Execution knobs shared by *every* campaign config, including
 * Fig5Config (hoisted from the former per-config duplication so
 * the spec parser sees one API shape everywhere).
 */
struct CampaignRunConfig
{
    int repetitions = 100; ///< faulty networks per campaign point
    uint64_t seed = 1;
    /** Worker threads; 0 = auto (DTANN_THREADS, else hardware). */
    int threads = 0;
    /** Optional per-cell progress callback. */
    ProgressCallback onCellDone;
    /** Optional checkpoint/resume store (owned by the caller). */
    CellCache *journal = nullptr;
    /**
     * Optional cooperative cancellation flag (owned by the caller).
     * Once it reads true, the engine stops starting cells and the
     * runner unwinds with CampaignCancelled.
     */
    const std::atomic<bool> *cancel = nullptr;
    /**
     * Optional externally owned worker pool. When set, the engine
     * schedules its batches there instead of creating a pool of its
     * own — the campaign daemon points every admitted job here, so
     * concurrent jobs share one pool fair-share (`threads` is then
     * ignored). Results are bit-identical either way.
     */
    ThreadPool *sharedPool = nullptr;
    /**
     * Optional cross-campaign cache for the expensive read-only
     * state (netlist, dataset + clean baseline weights) campaigns
     * prepare before their cells run; see core/campaign.hh. Shared
     * by concurrent daemon jobs so the same circuit is built once.
     */
    SharedContextCache *contextCache = nullptr;
    /**
     * Deterministic multi-process sharding: with shardCount > 1
     * this run computes only the cells whose flat index i within
     * the campaign's cell table satisfies i % shardCount ==
     * shardIndex; the rest stay unresolved (journaled cells replay
     * regardless of the filter). Cells are placement-independent —
     * all their randomness is Rng::substream of the cell
     * coordinates — so merging the shards' journals and replaying
     * them through an unsharded run reproduces the single-process
     * result byte for byte. Execution knobs only: never serialized
     * into specs or journal echoes.
     */
    int shardCount = 1;
    /** This worker's shard in [0, shardCount). */
    int shardIndex = 0;

    /** Shared-field JSON fragment (no surrounding braces). */
    std::string jsonRunFields() const;
    /** Populate the shared fields present in JSON object @p v. */
    void readRunFields(const class JsonValue &v);
};

/**
 * Knobs shared by the network-level campaigns (Fig 10/11, the
 * mitigation sweep). Figure-specific configs derive from this.
 */
struct CampaignConfig : CampaignRunConfig
{
    std::vector<std::string> tasks; ///< empty = all 10
    int folds = 10;        ///< cross-validation folds
    size_t rows = 0;       ///< dataset size (0 = original)
    double epochScale = 1.0;    ///< scales baseline training epochs
    double retrainScale = 0.25; ///< retraining epochs vs baseline
    AcceleratorConfig array;
    /** Unit-instance draw: the paper picks operators/latches
     *  uniformly ("randomly pick one of the logic operators or
     *  latches"). */
    SiteWeighting weighting = SiteWeighting::Uniform;
    /** Hardware target the campaign cells instantiate. */
    BackendKind backend = BackendKind::Spatial;

    /** Shared-field JSON fragment (run fields + campaign fields). */
    std::string jsonCampaignFields() const;
    /** Populate the shared fields present in JSON object @p v. */
    void readCampaignFields(const class JsonValue &v);
};

/**
 * Fixed-size worker pool plus the campaign cell runner.
 *
 * Campaign code uses it in two phases: parallelFor over tasks to
 * prepare shared per-task state (dataset, baseline weights), then
 * runCells over the campaign's cell table.
 */
class CampaignEngine
{
  public:
    /** Engine for @p config (thread count, shared pool, cancel flag). */
    explicit CampaignEngine(const CampaignRunConfig &config);

    /** Standalone engine (benches, non-figure campaigns). */
    explicit CampaignEngine(int threads);

    /** Resolved execution width (>= 1). */
    int threads() const { return pool->size(); }

    /**
     * Run fn(0) .. fn(n-1) on the pool; blocks until done. @p fn
     * must derive randomness only from its index (Rng::substream)
     * and write only to its own result slot. When the config's
     * cancel flag is raised, unstarted indices are skipped and
     * CampaignCancelled is thrown once the batch drains.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /**
     * Resolve every cell in parallel: replay its journaled payload
     * (Payload::fromJson; a corrupt one warns and recomputes), or,
     * when its flat index is in this run's shard, compute(cell) it
     * and journal Payload::toJson(). Each resolved cell is reported
     * to config.onCellDone as label(cell, payload), cellsDone
     * counting 1, 2, ... of cellsTotal = cells.size().
     *
     * Workers claim cells heaviest first: by defect count,
     * descending, table order among equals, so the costly
     * many-defect cells do not start last and leave the other
     * workers idle at the tail. Only the claim order changes:
     * results, the fold, shard membership and journal keys all
     * follow the flat index, so the output is identical to a
     * table-order run.
     *
     * @return one entry per cell; empty for other shards' cells
     */
    template <typename Payload, typename Compute, typename Label>
    std::vector<std::optional<Payload>>
    runCells(const CampaignRunConfig &config,
             const std::vector<CampaignCell> &cells,
             const Compute &compute, const Label &label)
    {
        std::vector<std::optional<Payload>> out(cells.size());
        runTable(config, cells,
                 {[&](size_t i, const JsonValue &v) {
                      out[i] = Payload::fromJson(v);
                  },
                  [&](size_t i) { out[i] = compute(cells[i]); },
                  [&](size_t i) { return out[i]->toJson(); },
                  [&](size_t i) { return label(cells[i], *out[i]); }});
        return out;
    }

  private:
    /** runCells() hooks, type-erased and keyed by flat cell index. */
    struct CellHooks
    {
        std::function<void(size_t, const JsonValue &)> decode;
        std::function<void(size_t)> compute;
        std::function<std::string(size_t)> encode;
        std::function<CellReport(size_t)> report;
    };

    void runTable(const CampaignRunConfig &config,
                  const std::vector<CampaignCell> &cells,
                  const CellHooks &hooks);

    std::unique_ptr<ThreadPool> owned; ///< empty with a shared pool
    ThreadPool *pool;                  ///< owned.get() or borrowed
    const std::atomic<bool> *cancel = nullptr;
};

} // namespace dtann

#endif // DTANN_CORE_ENGINE_HH
