/**
 * @file
 * perfbench_driver: one run of one campaign-benchmark workload.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --work DIR [--dtannd BIN] [--trace-out FILE]
 *
 * Campaign workloads hand each job's spec to ScenarioSpec::parse and
 * runScenario() back to back for S seconds; daemon_jobs drives a
 * spawned dtannd through CampaignClient (daemon.cc). Every envelope
 * is checked (checks.hh). With --trace 1 a campaign workload instead
 * runs job 0 through the timing seams and replays its cells with
 * spans (replay.hh), reporting per-layer metrics.
 *
 * Prints one JSON report on stdout (attempted/failed counts, errors,
 * metrics, environment stamp) and writes the digest material of the
 * run's reference envelopes to DIR/digest.txt. Exit codes: 0 report
 * printed, 2 usage error, 3 refused (non-Release build).
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "checks.hh"
#include "circuit/lane_plane.hh"
#include "common/json.hh"
#include "daemon.hh"
#include "layers.hh"
#include "replay.hh"
#include "seams.hh"
#include "service/plan.hh"
#include "service/runner.hh"

#ifndef DTANN_BUILD_TYPE
#define DTANN_BUILD_TYPE "unknown"
#endif

using namespace dtann;
using namespace perfbench;

namespace fs = std::filesystem;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/** Samples a run keeps measuring for past --seconds, up to kMaxSeconds. */
constexpr size_t kMinJobs = 3;
constexpr double kMaxSeconds = 120.0;

/** One campaign job: spec → verified envelope through the seams. */
struct CampaignJob
{
    bool ok = false;
    double wall = 0.0, cpu = 0.0, setup = 0.0;
    uint64_t journalBytes = 0;
    std::string envelope;
    std::map<std::string, std::string> journal;
    std::map<std::string, TimedJournal::Cell> cells;
};

CampaignJob
runCampaignJob(const Options &o, uint64_t job, Report &report)
{
    CampaignJob out;
    std::string text =
        campaignJobSpec(o.workload, o.seed, job, o.threads);
    std::string path =
        o.workDir + "/job-" + std::to_string(job) + ".jnl";
    report.attempt();
    try {
        double c0 = selfCpuSeconds();
        double t0 = now();
        ScenarioSpec spec = ScenarioSpec::parse(text);
        TimedContextCache cache;
        ScenarioResult r;
        {
            ResultJournal journal(path, spec.journalEcho());
            TimedJournal seam(journal, planSpec(spec).cells);
            spec.runConfig().journal = &seam;
            spec.runConfig().contextCache = &cache;
            r = runScenario(spec);
            out.wall = now() - t0;
            out.cpu = selfCpuSeconds() - c0;
            out.cells = seam.cells();
        }
        out.setup = cache.busyWall();
        out.journalBytes = treeBytes(path);
        out.envelope = r.json;
        out.journal = readJournal(path);
        std::vector<std::string> errors =
            checkEnvelope(spec, r.json, out.journal);
        if (r.cells != planSpec(spec).cells)
            errors.push_back(spec.name + ": runner reports " +
                             std::to_string(r.cells) + " cells");
        for (const std::string &e : errors)
            report.fail(e);
        out.ok = errors.empty();
    } catch (const std::exception &e) {
        report.fail("job " + std::to_string(job) + ": " + e.what());
    }
    std::error_code ec;
    fs::remove(path, ec);
    return out;
}

void
writeDigest(const Options &o, const std::string &material)
{
    std::ofstream(o.workDir + "/digest.txt", std::ios::trunc) << material;
}

/** End-to-end metrics of a campaign workload (untraced). */
void
campaignEndToEnd(const Options &o, Report &report)
{
    std::vector<double> walls, cpus, setups, disks, cellLatency;
    double busy = 0.0;
    double start = now();
    for (uint64_t job = 0;; ++job) {
        CampaignJob j = runCampaignJob(o, job, report);
        // The process's first campaign runs cold; it is checked and
        // digested, and its wall is stamped, but it is not a sample.
        if (job == 0) {
            writeDigest(o, digestMaterial(j.envelope));
            report.stamp("cold_wall_s", jsonNumber(j.wall));
        } else if (j.ok) {
            walls.push_back(j.wall);
            cpus.push_back(j.cpu);
            setups.push_back(j.setup);
            disks.push_back(static_cast<double>(j.journalBytes) / kMiB);
            busy += j.wall;
            for (const auto &[key, c] : j.cells)
                cellLatency.push_back(c.end - c.start);
        }
        double elapsed = now() - start;
        if ((elapsed >= o.seconds && walls.size() >= kMinJobs) ||
            elapsed >= kMaxSeconds)
            break;
    }
    report.set("wall_s", median(walls), "s");
    report.set("setup_s", median(setups), "s");
    report.set("cpu_s", median(cpus), "s");
    report.set("peak_rss_mb", peakRssMb(), "MB");
    report.set("disk_mb", median(disks), "MB");
    report.set("jobs_per_s",
               busy > 0 ? static_cast<double>(walls.size()) / busy : 0.0,
               "1/s");
    report.set("job_p90_s", quantile(cellLatency, 0.9), "s");
    report.stamp("jobs", std::to_string(walls.size()));
    report.stamp("p90_unit", "\"campaign cell (CellCache seam)\"");
    report.stamp("p90_samples", std::to_string(cellLatency.size()));
}

/** Per-layer metrics of a campaign workload (seams + traced replay). */
void
campaignLayers(const Options &o, const std::string &traceOut,
               Report &report)
{
    LayerMetrics layers;
    // The first campaign of a process runs cold; it provides the
    // journal every replay is checked against. Then, for --seconds,
    // rounds of {runner campaign through the seams, untraced and
    // traced replay}: the traced - untraced replay medians are the
    // tracing overhead, the runner - untraced replay medians are the
    // runner's own cost beyond the calls it composes. Layer metrics
    // come from the last round.
    CampaignJob first = runCampaignJob(o, 0, report);
    writeDigest(o, digestMaterial(first.envelope));
    if (!first.ok) {
        layers.emit(report);
        return;
    }
    ScenarioSpec spec = ScenarioSpec::parse(
        campaignJobSpec(o.workload, o.seed, 0, o.threads));
    auto replayOnce = [&](bool traced) {
        std::string path = o.workDir + "/replay.jnl";
        ReplayResult r;
        {
            ResultJournal journal(path, spec.journalEcho());
            r = replaySpec(spec, o.threads, journal, traced);
        }
        std::error_code ec;
        fs::remove(path, ec);
        checkReplay(r, first.journal, report);
        return r;
    };
    std::vector<double> runnerWalls, untracedWalls, tracedWalls;
    CampaignJob j;
    ReplayResult replay;
    double start = now();
    do {
        j = runCampaignJob(o, 0, report);
        if (!j.ok) {
            layers.emit(report);
            return;
        }
        if (j.envelope != first.envelope)
            report.fail("two untraced runs of one spec differ");
        runnerWalls.push_back(j.wall);
        // Alternate which replay goes first, so order effects cancel.
        bool tracedFirst = runnerWalls.size() % 2 == 0;
        if (!tracedFirst)
            untracedWalls.push_back(replayOnce(false).wall);
        replay = replayOnce(true);
        tracedWalls.push_back(replay.wall);
        if (tracedFirst)
            untracedWalls.push_back(replayOnce(false).wall);
    } while (now() - start < o.seconds && now() - start < kMaxSeconds);
    report.stamp("trace_rounds", std::to_string(runnerWalls.size()));

    layers.addSim(envelopeSim(j.envelope));
    layers.addSeamCells(j.cells, o.threads);
    layers.set("service.journal_bytes",
               static_cast<double>(j.journalBytes));
    layers.addReplay(replay, j.cells);
    layers.set("trace.untraced_wall_s", median(untracedWalls));
    layers.set("trace.traced_wall_s", median(tracedWalls));
    layers.set("trace.overhead_s",
               median(tracedWalls) - median(untracedWalls));
    layers.set("trace.runner_wall_s", median(runnerWalls));
    layers.set("trace.runner_gap_s",
               median(runnerWalls) - median(untracedWalls));
    layers.emit(report);

    if (!traceOut.empty()) {
        std::vector<const Trace *> all;
        for (const Trace &t : replay.setup)
            all.push_back(&t);
        for (const CellReplay &c : replay.cells)
            all.push_back(&c.trace);
        for (const Trace &t : replay.shadow)
            all.push_back(&t);
        writeTraces(traceOut, all);
    }
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work DIR [--dtannd BIN] "
                 "[--trace-out FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string traceOut;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = std::stoull(value);
        else if (flag == "--seconds")
            o.seconds = std::stod(value);
        else if (flag == "--trace")
            o.trace = value == "1";
        else if (flag == "--work")
            o.workDir = value;
        else if (flag == "--dtannd")
            o.dtannd = value;
        else if (flag == "--trace-out")
            traceOut = value;
        else
            return usage();
    }
    if (argc % 2 != 1 || o.workDir.empty() ||
        (!isCampaignWorkload(o.workload) && o.workload != "daemon_jobs"))
        return usage();

    // Timings from anything but an optimized build are not results.
    if (std::strcmp(DTANN_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "perfbench_driver: refusing to record results from "
                     "a '%s' build (configure with "
                     "-DCMAKE_BUILD_TYPE=Release)\n",
                     DTANN_BUILD_TYPE);
        return 3;
    }

    o.threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    Report report;
    report.stamp("build_type", jsonString(DTANN_BUILD_TYPE));
    report.stamp("lanes", std::to_string(batchLaneWidth()));
    report.stamp("lane_isa", jsonString(batchLaneIsa()));
    report.stamp("nproc", std::to_string(o.threads));
    report.stamp("threads", std::to_string(o.threads));
    report.stamp("load_before", jsonNumber(loadAverage()));

    try {
        if (o.workload == "daemon_jobs")
            runDaemonWorkload(o, traceOut, report);
        else if (o.trace)
            campaignLayers(o, traceOut, report);
        else
            campaignEndToEnd(o, report);
    } catch (const std::exception &e) {
        report.fail(std::string("driver: ") + e.what());
    }

    report.stamp("load_after", jsonNumber(loadAverage()));
    std::printf("%s\n", report.toJson().c_str());
    return 0;
}
