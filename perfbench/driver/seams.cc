#include "seams.hh"

#include <algorithm>

#include "bench.hh"

namespace perfbench {

std::shared_ptr<const dtann::TaskContext>
TimedContextCache::task(const std::string &,
                        const std::function<dtann::TaskContext()> &build)
{
    double t0 = now();
    auto ctx = std::make_shared<const dtann::TaskContext>(build());
    record(t0, now());
    return ctx;
}

std::shared_ptr<const dtann::Netlist>
TimedContextCache::netlist(const std::string &,
                           const std::function<dtann::Netlist()> &build)
{
    double t0 = now();
    auto nl = std::make_shared<const dtann::Netlist>(build());
    record(t0, now());
    return nl;
}

void
TimedContextCache::record(double t0, double t1)
{
    std::lock_guard<std::mutex> lock(mu);
    builds.emplace_back(t0, t1);
}

double
TimedContextCache::busyWall() const
{
    std::vector<std::pair<double, double>> v;
    {
        std::lock_guard<std::mutex> lock(mu);
        v = builds;
    }
    std::sort(v.begin(), v.end());
    double total = 0.0, lo = 0.0, hi = -1.0;
    for (const auto &[a, b] : v) {
        if (a > hi) {
            if (hi > lo)
                total += hi - lo;
            lo = a;
            hi = b;
        } else {
            hi = std::max(hi, b);
        }
    }
    if (hi > lo)
        total += hi - lo;
    return total;
}

namespace {

/** Seam start of the cell this worker thread is computing. */
thread_local double cellStart = 0.0;

} // namespace

bool
TimedJournal::lookup(const dtann::CellKey &key, std::string &payload)
{
    cellStart = now();
    return inner.lookup(key, payload);
}

void
TimedJournal::store(const dtann::CellKey &key,
                    const std::string &payload)
{
    inner.store(key, payload);
    double end = now();
    size_t slot = used.fetch_add(1);
    if (slot < slots.size())
        slots[slot] = {key.toString(), {cellStart, end}};
}

std::map<std::string, TimedJournal::Cell>
TimedJournal::cells() const
{
    std::map<std::string, Cell> out;
    size_t n = std::min(used.load(), slots.size());
    for (size_t i = 0; i < n; ++i)
        out.insert(slots[i]);
    return out;
}

} // namespace perfbench
