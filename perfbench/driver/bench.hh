/**
 * @file
 * Shared plumbing of the campaign benchmark driver: host clocks,
 * per-process resource readings, order statistics, the metric
 * report, and the workload spec generators.
 *
 * Every timing in the benchmark is host time (steady_clock);
 * simulated statistics come from the envelopes and are compared
 * exactly.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the monotonic host clock. */
double now();

/** User+system CPU seconds of this process (all threads). */
double selfCpuSeconds();

/** User+system CPU seconds of process @p pid, from /proc. */
double procCpuSeconds(pid_t pid);

/** Peak resident set (VmHWM) of @p pid in MB, from /proc; 0 = self. */
double peakRssMb(pid_t pid = 0);

/** Total bytes of the regular files under @p path (recursive). */
uint64_t treeBytes(const std::string &path);

/** The 1-minute load average from /proc/loadavg. */
double loadAverage();

/** Order statistic with linear interpolation (q in [0,1]). */
double quantile(std::vector<double> v, double q);

inline double median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** A job seed derived from the run seed (splitmix64 chain). */
uint64_t deriveSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/** Read a whole file; throws std::runtime_error when unreadable. */
std::string readFile(const std::string &path);

/** Named metrics with units, printed as one JSON object. */
class Report
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);

    /** Record one failed operation with its reason. */
    void fail(const std::string &what);
    /** Count one attempted operation. */
    void attempt(uint64_t n = 1) { attempted += n; }

    /** Free-form stamp entry (environment, sample counts, ...). */
    void stamp(const std::string &key, const std::string &jsonValue);

    /** {"attempted":..,"failed":..,"errors":[..],"metrics":{..},
     *  "stamp":{..}} */
    std::string toJson() const;

    uint64_t failures() const { return errors.size(); }

  private:
    std::map<std::string, std::pair<double, std::string>> metrics;
    std::map<std::string, std::string> stamps;
    std::vector<std::string> errors;
    uint64_t attempted = 0;
};

/** Driver options (one run of one workload). */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir; ///< scratch dir for journals / state dirs
    std::string dtannd;  ///< daemon binary (daemon_jobs)
    int threads = 1;     ///< worker threads (nproc)
};

/**
 * The spec text of job @p job of a campaign workload. Every job of
 * a run uses its own derived seed, so a run samples the workload's
 * cost distribution instead of one fixed draw.
 */
std::string campaignJobSpec(const std::string &workload, uint64_t seed,
                            uint64_t job, int threads);

/** True for the three in-process campaign workloads. */
bool isCampaignWorkload(const std::string &workload);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
