/**
 * @file
 * Traced replay: re-run a spec's cells through the same public
 * functions the campaign runners compose, with a span around every
 * call into a layer.
 *
 *  - network cells (Fig 10): makeSyntheticTask, makeBackend,
 *    DefectInjector::inject, and per fold Trainer::train +
 *    evalAccuracy over kFoldIndices / complementSubset / subset
 *  - mitigation cells: Mitigator::run with a timed inject callback;
 *    BIST diagnosis (diagnose) is timed on a shadow copy of each
 *    diagnosing cell after the replay wall clock stops
 *  - Fig 5 cells: injectTransistorDefects, injectGateLevelFaults,
 *    OperatorSim::applyLanes
 *
 * Each replayed cell rebuilds its journal payload, so faithfulness
 * is checked byte for byte against the untraced run's journal under
 * the same CellKey. Spans stay in memory until the caller writes
 * them out.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <map>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/engine.hh"
#include "service/spec.hh"

namespace perfbench {

/** One host-time span; parent indexes the same span list (-1 = root). */
struct Span
{
    std::string name;
    double t0 = 0.0, t1 = 0.0;
    int parent = -1;
};

/** The spans of one unit of work, sharing one trace id. */
struct Trace
{
    std::string id; ///< CellKey for cells, a label otherwise
    std::vector<Span> spans;
};

/** Span stack over one Trace. */
class Tracer
{
  public:
    /** @p enabled false records nothing (the untraced baseline). */
    explicit Tracer(Trace &trace, bool enabled = true)
        : trace(trace), enabled(enabled)
    {
    }

    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tr, std::string name) : tr(tr)
        {
            if (!tr.enabled)
                return;
            idx = static_cast<int>(tr.trace.spans.size());
            tr.trace.spans.push_back({std::move(name), now(), 0.0,
                                      tr.current});
            tr.current = idx;
        }
        ~Scope()
        {
            if (!tr.enabled)
                return;
            Span &s = tr.trace.spans[static_cast<size_t>(idx)];
            s.t1 = now();
            tr.current = s.parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tr;
        int idx = -1;
    };

  private:
    Trace &trace;
    bool enabled;
    int current = -1;
};

/** A replayed cell: its trace, rebuilt payload, and work counts. */
struct CellReplay
{
    Trace trace;
    std::string payload;
    uint64_t retrainVectors = 0; ///< simCounters() delta in train
    uint64_t evalVectors = 0;    ///< simCounters() delta in eval
    uint64_t operatorVectors = 0; ///< vectors through applyLanes
};

struct ReplayResult
{
    double wall = 0.0;          ///< set-up + cells, host seconds
    std::vector<Trace> setup;   ///< context / netlist builds
    std::vector<CellReplay> cells;
    std::vector<Trace> shadow;  ///< off-clock side measurements
};

/**
 * Replay every cell of @p spec on @p threads workers, looking each
 * cell up in @p journal first and storing its payload after, as the
 * runners do (spans service.journal_lookup / service.journal_store).
 * With @p traced false no span is recorded: the same calls, untraced.
 */
ReplayResult replaySpec(const dtann::ScenarioSpec &spec, int threads,
                        dtann::CellCache &journal, bool traced = true);

/** Self time (duration minus child spans) summed by span name. */
std::map<std::string, double> selfTimes(const std::vector<Trace> &traces);

/** Seconds of @p trace's root span covered by its direct children. */
double childCovered(const Trace &trace);

/** Write traces as JSON lines ({"trace":..,"name":..,...}). */
void writeTraces(const std::string &path,
                 const std::vector<const Trace *> &traces);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
