#include "daemon.hh"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "checks.hh"
#include "common/json.hh"
#include "layers.hh"
#include "replay.hh"
#include "service/client.hh"
#include "service/journal.hh"
#include "service/runner.hh"

extern char **environ;

using namespace dtann;

namespace fs = std::filesystem;

namespace perfbench {

namespace {

/** Fixed client poll interval, so polls per job compare across commits. */
constexpr double kPollSeconds = 0.002;
/** Closed-loop clients, each in its own thread of this process. */
constexpr size_t kClients = 2;
/** Jobs per measured loop: the p90 keeps at least ten samples beyond it. */
constexpr size_t kMinJobs = 110;
/** Daemon spawns whose set-up time is sampled (the median is reported). */
constexpr int kSetupSamples = 31;

void
sleepFor(double seconds)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/**
 * A dtannd child with its own state dir and ephemeral port. The
 * destructor kills a daemon that was not shut down and removes the
 * state dir, so no run leaves a process or its files behind.
 */
class DaemonProcess
{
  public:
    DaemonProcess(const Options &o, const std::string &dir) : dir(dir)
    {
        fs::create_directories(dir + "/state");
        std::string portFile = dir + "/port";
        std::string log = dir + "/dtannd.log";
        std::string threads = std::to_string(o.threads);
        std::vector<std::string> args = {
            o.dtannd,      "--state-dir", dir + "/state",
            "--listen",    "127.0.0.1:0", "--threads",
            threads,       "--runners",   "2",
            "--port-file", portFile};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        double t0 = now();
        int rc = posix_spawn(&child, o.dtannd.c_str(), &actions, nullptr,
                             argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            child = -1;
            throw std::runtime_error("cannot spawn " + o.dtannd);
        }

        // Ready = port file published and /metrics answering.
        while (now() - t0 < 30.0) {
            if (exited())
                throw std::runtime_error("dtannd exited during start-up");
            if (addr.empty() && fs::exists(portFile)) {
                addr = readFile(portFile);
                while (!addr.empty() && addr.back() == '\n')
                    addr.pop_back();
            }
            if (!addr.empty()) {
                try {
                    CampaignClient(addr).metrics();
                    readySeconds = now() - t0;
                    return;
                } catch (const ClientError &) {
                }
            }
            sleepFor(0.00005);
        }
        throw std::runtime_error("dtannd not ready within 30 s");
    }

    ~DaemonProcess()
    {
        if (child > 0) {
            ::kill(child, SIGKILL);
            int status = 0;
            ::waitpid(child, &status, 0);
        }
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    const std::string &address() const { return addr; }
    pid_t pid() const { return child; }
    std::string stateDir() const { return dir + "/state"; }

    /**
     * POST /shutdown (drain: running and queued jobs finish first)
     * and wait for the exit. @return the exit code, or -1 when the
     * daemon did not exit cleanly within @p timeout seconds.
     */
    int
    drain(double timeout)
    {
        CampaignClient(addr).shutdown(false);
        double t0 = now();
        while (now() - t0 < timeout) {
            if (exited())
                return exitCode;
            sleepFor(0.001);
        }
        return -1;
    }

    double readySeconds = 0.0;

  private:
    bool
    exited()
    {
        if (child <= 0)
            return true;
        int status = 0;
        if (::waitpid(child, &status, WNOHANG) != child)
            return false;
        child = -1;
        exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        return true;
    }

    std::string dir;
    std::string addr;
    pid_t child = -1;
    int exitCode = -1;
};

/**
 * Spec of the @p k-th job of client @p client. Clients alternate a
 * small Fig 5 job with an eval-only Fig 10 job; every Fig 10 job
 * shares one (seed, rows, epoch_scale), so after the warm-up the
 * daemon's task cache serves every context.
 */
std::string
daemonJobSpec(uint64_t seed, size_t client, uint64_t k)
{
    uint64_t s = deriveSeed(seed, 1000 + client, k);
    if (k % 2 == 0) {
        static const int kDefects[] = {1, 5, 20};
        return std::string("{\"kind\":\"fig5\",\"name\":\"daemon_fig5\","
                           "\"repetitions\":64,\"seed\":") +
            std::to_string(s) + ",\"operators\":[\"" +
            ((s >> 8) % 2 ? "multiplier4" : "adder4") +
            "\"],\"defect_counts\":[" + std::to_string(kDefects[s % 3]) +
            "]}";
    }
    return "{\"kind\":\"fig10\",\"name\":\"daemon_fig10\","
           "\"repetitions\":4,\"seed\":" +
        std::to_string(deriveSeed(seed, 999)) +
        ",\"tasks\":[\"iris\",\"breast\",\"wine\"],\"folds\":2,"
        "\"rows\":40,\"epoch_scale\":0.05,\"retrain_scale\":0.3,"
        "\"defect_counts\":[" + std::to_string(1 + s % 24) +
        "],\"retrain\":false}";
}

/** Specs that fill the daemon's task and netlist caches. */
std::vector<std::string>
warmupSpecs(uint64_t seed)
{
    return {"{\"kind\":\"fig10\",\"name\":\"warmup\",\"repetitions\":1,"
            "\"seed\":" + std::to_string(deriveSeed(seed, 999)) +
                ",\"tasks\":[\"iris\",\"breast\",\"wine\"],\"folds\":2,"
                "\"rows\":40,\"epoch_scale\":0.05,\"retrain_scale\":0.3,"
                "\"defect_counts\":[0],\"retrain\":false}",
            "{\"kind\":\"fig5\",\"name\":\"warmup\",\"repetitions\":4,"
            "\"seed\":1,\"operators\":[\"adder4\",\"multiplier4\"],"
            "\"defect_counts\":[1]}"};
}

/** One job as its client saw it. */
struct JobRecord
{
    std::string spec;
    uint64_t id = 0;
    double submit = 0.0, running = 0.0, done = 0.0;
    size_t polls = 0;
    bool ok = false;
    std::string error;
    std::string envelope;
    Trace trace;
};

/** Submit @p spec and wait for its result, polling at the fixed interval. */
JobRecord
runJob(const std::string &addr, std::string spec, bool traced)
{
    JobRecord r;
    r.spec = std::move(spec);
    CampaignClient client(addr);
    Tracer tr(r.trace);
    r.submit = now();
    try {
        {
            std::optional<Tracer::Scope> s;
            if (traced)
                s.emplace(tr, "client.submit");
            r.id = client.submit(r.spec);
        }
        r.trace.id = "job/" + std::to_string(r.id);
        std::string state;
        {
            std::optional<Tracer::Scope> s;
            if (traced)
                s.emplace(tr, "client.poll");
            for (;;) {
                sleepFor(kPollSeconds);
                ++r.polls;
                state = jsonParse(client.status(r.id))
                            .at("state")
                            .asString();
                if (state != "queued" && r.running == 0.0)
                    r.running = now();
                if (state == "done" || state == "failed" ||
                    state == "cancelled")
                    break;
            }
        }
        if (state != "done") {
            r.error = "job " + std::to_string(r.id) + " ended " + state;
            return r;
        }
        std::optional<Tracer::Scope> s;
        if (traced)
            s.emplace(tr, "client.result");
        r.envelope = client.result(r.id);
        r.done = now();
        r.ok = true;
    } catch (const std::exception &e) {
        r.error = "job " + std::to_string(r.id) + ": " + e.what();
    }
    return r;
}

/**
 * The closed loop: kClients threads, each submitting its next job
 * only after the previous result arrived, until @p seconds have
 * passed and at least kMinJobs jobs finished (hard stop at
 * @p hardStop seconds).
 */
std::vector<JobRecord>
closedLoop(const std::string &addr, uint64_t seed, double seconds,
           double hardStop, bool traced, std::vector<uint64_t> &next)
{
    std::mutex mu;
    std::vector<JobRecord> records; // guarded by mu
    std::atomic<size_t> finished{0};
    double t0 = now();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            for (;;) {
                double elapsed = now() - t0;
                if (elapsed >= hardStop ||
                    (elapsed >= seconds && finished.load() >= kMinJobs))
                    return;
                JobRecord r =
                    runJob(addr, daemonJobSpec(seed, c, next[c]++), traced);
                ++finished;
                std::lock_guard<std::mutex> lock(mu);
                records.push_back(std::move(r));
            }
        });
    for (std::thread &t : clients)
        t.join();
    return records;
}

/** Counters of one GET /metrics snapshot. */
struct MetricsSnapshot
{
    JsonValue doc;

    double
    http(const char *endpoint, const char *field) const
    {
        const JsonValue *e = doc.at("http").find(endpoint);
        return e ? e->at(field).asNumber() : 0.0;
    }
    double
    cache(const char *kind, const char *field) const
    {
        return doc.at("cache").at(kind).at(field).asNumber();
    }
};

MetricsSnapshot
snapshot(const std::string &addr)
{
    return {jsonParse(CampaignClient(addr).metrics())};
}

/** Mean latency in ms of @p endpoint between two snapshots. */
double
endpointMs(const MetricsSnapshot &a, const MetricsSnapshot &b,
           const char *endpoint)
{
    double n = b.http(endpoint, "count") - a.http(endpoint, "count");
    double us = b.http(endpoint, "total_us") - a.http(endpoint, "total_us");
    return n > 0 ? us / n / 1e3 : 0.0;
}

double
hitRate(const MetricsSnapshot &a, const MetricsSnapshot &b,
        const char *kind)
{
    double hits = b.cache(kind, "hits") - a.cache(kind, "hits");
    double misses = b.cache(kind, "misses") - a.cache(kind, "misses");
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

/** Check a finished job's envelope against its journal in the state dir. */
void
checkJob(const JobRecord &r, const std::string &stateDir, Report &report)
{
    if (!r.ok) {
        report.fail(r.error);
        return;
    }
    ScenarioSpec spec = ScenarioSpec::parse(r.spec);
    std::map<std::string, std::string> journal = readJournal(
        stateDir + "/job-" + std::to_string(r.id) + ".jnl");
    for (const std::string &e : checkEnvelope(spec, r.envelope, journal))
        report.fail("job " + std::to_string(r.id) + ": " + e);
}

/** Offline runScenario of @p r's spec; must match the daemon byte for byte. */
void
compareOffline(const JobRecord &r, const Options &o, Report &report)
{
    ScenarioSpec spec = ScenarioSpec::parse(r.spec);
    spec.runConfig().threads = o.threads;
    report.attempt();
    if (runScenario(spec).json + "\n" != r.envelope)
        report.fail("job " + std::to_string(r.id) +
                    ": daemon envelope differs from an offline "
                    "runScenario of the same spec");
}

} // namespace

void
runDaemonWorkload(const Options &o, const std::string &traceOut,
                  Report &report)
{
    DaemonProcess d(o, o.workDir + "/daemon");
    report.stamp("measured_daemon_setup_s", jsonNumber(d.readySeconds));
    const std::string &addr = d.address();

    for (const std::string &spec : warmupSpecs(o.seed)) {
        JobRecord r = runJob(addr, spec, false);
        report.attempt();
        checkJob(r, d.stateDir(), report);
    }

    std::vector<uint64_t> next(kClients, 0);
    double hardStop = 2.0 * o.seconds + 20.0;
    MetricsSnapshot before = snapshot(addr);
    double cpu0 = procCpuSeconds(d.pid());
    double t0 = now();
    std::vector<JobRecord> jobs = closedLoop(
        addr, o.seed, o.trace ? o.seconds / 2 : o.seconds, hardStop, false,
        next);
    double loopWall = now() - t0;
    double cpu = procCpuSeconds(d.pid()) - cpu0;
    MetricsSnapshot after = snapshot(addr);

    std::vector<JobRecord> traced;
    if (o.trace)
        traced = closedLoop(addr, o.seed, o.seconds / 2, hardStop, true,
                            next);
    MetricsSnapshot tracedAfter = snapshot(addr);

    // Set-up samples: spawn an idle daemon, wait until it is ready,
    // drain it. Taken after the loop, when the host has settled from
    // the run's start-up, so the samples are alike.
    std::vector<double> setups;
    for (int i = 0; i < kSetupSamples; ++i) {
        DaemonProcess idle(o, o.workDir + "/setup-" + std::to_string(i));
        setups.push_back(idle.readySeconds);
        report.attempt();
        if (int code = idle.drain(30.0); code != 0)
            report.fail("idle dtannd drain exited " + std::to_string(code));
    }

    // Drain shutdown with one job still in flight: it must finish
    // before the daemon exits 0.
    uint64_t drainId = 0;
    std::string drainSpec = daemonJobSpec(o.seed, kClients, 0);
    report.attempt();
    try {
        drainId = CampaignClient(addr).submit(drainSpec);
    } catch (const std::exception &e) {
        report.fail(std::string("drain job refused: ") + e.what());
    }
    double rss = peakRssMb(d.pid());
    uint64_t stateBytes = treeBytes(d.stateDir());
    uint64_t journalBytes = 0;
    for (const auto &e : fs::directory_iterator(d.stateDir()))
        if (e.path().extension() == ".jnl")
            journalBytes += e.file_size();
    size_t stateJobs = jobs.size() + traced.size() + 3;
    if (int code = d.drain(60.0); code != 0)
        report.fail("dtannd drain shutdown exited " + std::to_string(code));
    else if (drainId != 0) {
        JobRecord r;
        r.spec = drainSpec;
        r.id = drainId;
        try {
            r.envelope = readFile(d.stateDir() + "/job-" +
                                  std::to_string(drainId) +
                                  ".result.json");
            r.ok = true;
        } catch (const std::exception &) {
            r.error = "drain shutdown left job " +
                std::to_string(drainId) + " unfinished";
        }
        checkJob(r, d.stateDir(), report);
    }

    // Output checks on every job, then byte-identity with offline
    // runs for the first Fig 5 and Fig 10 job of client 0.
    std::vector<double> latency, queueWait;
    size_t polls = 0;
    SimCounters sim;
    for (const std::vector<JobRecord> *set : {&jobs, &traced})
        for (const JobRecord &r : *set) {
            report.attempt();
            size_t before_fail = report.failures();
            checkJob(r, d.stateDir(), report);
            if (set == &jobs && report.failures() == before_fail) {
                latency.push_back(r.done - r.submit);
                queueWait.push_back(r.running - r.submit);
                polls += r.polls;
                sim.merge(envelopeSim(r.envelope));
            }
        }
    const JobRecord *sample[2] = {nullptr, nullptr};
    for (const JobRecord &r : jobs)
        if (r.ok && r.spec == daemonJobSpec(o.seed, 0, 0))
            sample[0] = &r;
        else if (r.ok && r.spec == daemonJobSpec(o.seed, 0, 1))
            sample[1] = &r;
    std::string digest;
    for (const JobRecord *r : sample) {
        if (r == nullptr) {
            report.fail("reference job of client 0 missing");
            continue;
        }
        compareOffline(*r, o, report);
        digest += digestMaterial(r->envelope);
    }
    std::ofstream(o.workDir + "/digest.txt", std::ios::trunc) << digest;

    double jobsDone = static_cast<double>(latency.size());
    report.stamp("jobs", std::to_string(latency.size()));
    report.stamp("p90_unit", "\"daemon job (POST to result 200)\"");
    report.stamp("p90_samples", std::to_string(latency.size()));
    report.stamp("clients", std::to_string(kClients));
    report.stamp("poll_interval_s", jsonNumber(kPollSeconds));
    report.stamp("setup_samples", std::to_string(setups.size()));

    if (!o.trace) {
        report.set("wall_s", median(latency), "s");
        report.set("setup_s", median(setups), "s");
        report.set("cpu_s", jobsDone > 0 ? cpu / jobsDone : 0.0, "s");
        report.set("peak_rss_mb", rss, "MB");
        report.set("disk_mb",
                   static_cast<double>(stateBytes) / (1024.0 * 1024.0) /
                       static_cast<double>(stateJobs),
                   "MB");
        report.set("jobs_per_s", jobsDone / loopWall, "1/s");
        report.set("job_p90_s", quantile(latency, 0.9), "s");
        return;
    }

    LayerMetrics layers;
    layers.addSim(sim);
    layers.set("server.post_jobs_ms", endpointMs(before, after, "POST /jobs"));
    layers.set("server.get_status_ms",
               endpointMs(before, after, "GET /jobs/<id>"));
    layers.set("server.get_result_ms",
               endpointMs(before, after, "GET /jobs/<id>/result"));
    layers.set("server.queue_wait_s", median(queueWait));
    layers.set("server.task_cache_hit_rate", hitRate(before, after, "task"));
    layers.set("server.netlist_cache_hit_rate",
               hitRate(before, after, "netlist"));
    layers.set("server.task_cache_misses",
               after.cache("task", "misses") - before.cache("task", "misses"));
    layers.set("server.state_dir_bytes", static_cast<double>(stateBytes));
    layers.set("service.journal_bytes", static_cast<double>(journalBytes));
    layers.set("client.polls_per_job",
               jobsDone > 0 ? static_cast<double>(polls) / jobsDone : 0.0);
    layers.set("client.poll_useful_frac",
               polls > 0 ? jobsDone / static_cast<double>(polls) : 0.0);

    std::vector<double> tracedLatency;
    std::vector<Trace> spans;
    for (const JobRecord &r : traced)
        if (r.ok) {
            tracedLatency.push_back(r.done - r.submit);
            spans.push_back(r.trace);
        }
    for (const auto &[span, self] : selfTimes(spans))
        layers.add(span + "_s", self);
    layers.set("trace.untraced_wall_s", median(latency));
    layers.set("trace.traced_wall_s", median(tracedLatency));
    layers.set("trace.overhead_s", median(tracedLatency) - median(latency));
    report.stamp("traced_jobs", std::to_string(tracedLatency.size()));
    report.stamp("traced_post_jobs_ms",
                 jsonNumber(endpointMs(after, tracedAfter, "POST /jobs")));

    // Offline traced replay of the reference jobs: the layers a
    // daemon job spends its time in, checked against the journal the
    // daemon wrote for the same cells.
    std::vector<ReplayResult> replays;
    for (const JobRecord *r : sample) {
        if (r == nullptr)
            continue;
        ScenarioSpec spec = ScenarioSpec::parse(r->spec);
        ResultJournal journal(o.workDir + "/replay-" +
                                  std::to_string(r->id) + ".jnl",
                              spec.journalEcho());
        replays.push_back(replaySpec(spec, o.threads, journal));
        checkReplay(replays.back(),
                    readJournal(d.stateDir() + "/job-" +
                                std::to_string(r->id) + ".jnl"),
                    report);
        layers.addReplay(replays.back(), {});
    }
    // The replay builds every context and netlist; the daemon builds
    // them only on a cache miss.
    double taskMiss = 1.0 - hitRate(before, after, "task");
    layers.scale("data.synth_s", taskMiss);
    layers.scale("ann.baseline_train_s", taskMiss);
    layers.scale("rtl.build_netlist_s",
                 1.0 - hitRate(before, after, "netlist"));
    layers.emit(report);

    if (!traceOut.empty()) {
        std::vector<const Trace *> all;
        for (const Trace &t : spans)
            all.push_back(&t);
        for (const ReplayResult &rr : replays) {
            for (const Trace &t : rr.setup)
                all.push_back(&t);
            for (const CellReplay &c : rr.cells)
                all.push_back(&c.trace);
        }
        writeTraces(traceOut, all);
    }
}

} // namespace perfbench
