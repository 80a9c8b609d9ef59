#include "bench.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hh"

namespace fs = std::filesystem;

namespace perfbench {

double
now()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

double
selfCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                   ru.ru_stime.tv_usec);
}

double
procCpuSeconds(pid_t pid)
{
    std::string stat =
        readFile("/proc/" + std::to_string(pid) + "/stat");
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 (1-based) of the whole line.
    size_t close = stat.rfind(')');
    std::istringstream in(stat.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && in >> field; ++i) {
        if (i == 14)
            utime = std::stoull(field);
        if (i == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
        static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
peakRssMb(pid_t pid)
{
    std::string path = pid == 0
        ? std::string("/proc/self/status")
        : "/proc/" + std::to_string(pid) + "/status";
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MB
    return 0.0;
}

uint64_t
treeBytes(const std::string &path)
{
    uint64_t total = 0;
    std::error_code ec;
    if (fs::is_regular_file(path, ec))
        return fs::file_size(path, ec);
    for (auto it = fs::recursive_directory_iterator(path, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec))
        if (it->is_regular_file(ec))
            total += it->file_size(ec);
    return total;
}

double
loadAverage()
{
    double one = 0.0;
    if (FILE *f = std::fopen("/proc/loadavg", "r")) {
        if (std::fscanf(f, "%lf", &one) != 1)
            one = 0.0;
        std::fclose(f);
    }
    return one;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

uint64_t
deriveSeed(uint64_t seed, uint64_t a, uint64_t b)
{
    auto mix = [](uint64_t x) {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    };
    // 48 bits: exact as a JSON number in any reader.
    return mix(mix(mix(seed) ^ a) ^ b) & 0xffffffffffffULL;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    metrics[name] = {value, unit};
}

void
Report::fail(const std::string &what)
{
    errors.push_back(what);
}

void
Report::stamp(const std::string &key, const std::string &jsonValue)
{
    stamps[key] = jsonValue;
}

std::string
Report::toJson() const
{
    using dtann::jsonString;
    std::string out = "{\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(errors.size());
    out += ",\"errors\":[";
    for (size_t i = 0; i < errors.size(); ++i)
        out += std::string(i ? "," : "") + jsonString(errors[i]);
    out += "],\"metrics\":{";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", m.first);
        out += std::string(first ? "" : ",") + jsonString(name) +
            ":{\"value\":" + num + ",\"unit\":" + jsonString(m.second) +
            "}";
        first = false;
    }
    out += "},\"stamp\":{";
    first = true;
    for (const auto &[key, value] : stamps) {
        out += std::string(first ? "" : ",") + jsonString(key) + ":" + value;
        first = false;
    }
    out += "}}";
    return out;
}

bool
isCampaignWorkload(const std::string &workload)
{
    return workload == "retrain_spatial" ||
        workload == "mitigate_systolic" || workload == "operator_sweep";
}

std::string
campaignJobSpec(const std::string &workload, uint64_t seed, uint64_t job,
                int threads)
{
    std::string s = std::to_string(deriveSeed(seed, job));
    std::string t = std::to_string(threads);
    if (workload == "retrain_spatial")
        // Fig 10 with retraining on the spatial array: small tasks
        // (iris, breast) beside heavy ones (vehicle, wine), defect
        // counts from few to many.
        return "{\"kind\":\"fig10\",\"name\":\"retrain_spatial\","
               "\"repetitions\":6,\"seed\":" + s + ",\"threads\":" + t +
            ",\"tasks\":[\"iris\",\"breast\",\"vehicle\",\"wine\"],"
            "\"folds\":2,\"rows\":40,\"epoch_scale\":0.05,"
            "\"retrain_scale\":0.3,\"defect_counts\":[0,1,4,16],"
            "\"retrain\":true,\"backend\":\"spatial\"}";
    if (workload == "mitigate_systolic")
        return "{\"kind\":\"mitigation\",\"name\":\"mitigate_systolic\","
               "\"repetitions\":5,\"seed\":" + s + ",\"threads\":" + t +
            ",\"tasks\":[\"breast\",\"iris\",\"vehicle\"],\"folds\":2,"
            "\"rows\":40,\"epoch_scale\":0.05,\"retrain_scale\":0.3,"
            "\"defect_counts\":[0,2,6,14],"
            "\"strategies\":[\"noop\",\"retrain\",\"bypass\",\"clamp\"],"
            "\"bist_vectors_per_unit\":8,\"backend\":\"systolic\"}";
    if (workload == "operator_sweep")
        return "{\"kind\":\"fig5\",\"name\":\"operator_sweep\","
               "\"repetitions\":2000,\"seed\":" + s + ",\"threads\":" +
            t + ",\"operators\":[\"adder4\",\"multiplier4\"],"
            "\"defect_counts\":[1,5,20],\"fa_style\":\"nand9\"}";
    throw std::invalid_argument("not a campaign workload: " + workload);
}

} // namespace perfbench
