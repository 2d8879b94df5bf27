#include "stats.hh"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "util/quantile.hh"

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool
percentileReportable(size_t n, double q, size_t minBeyond)
{
    return n > 0 && n - (mica::util::quantileRank(q, n) + 1) >= minBeyond;
}

bool
metricNameValid(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

uint64_t
fnv(const void *data, size_t n, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

CpuTimes
readCpuTimes()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    CpuTimes t;
    if (cpu != "cpu")
        return t;
    // user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8; ++i) {
        uint64_t v = 0;
        if (!(in >> v))
            return {};
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

double
stealShare(const CpuTimes &a, const CpuTimes &b)
{
    if (b.total <= a.total || b.steal < a.steal)
        return 0.0;
    return static_cast<double>(b.steal - a.steal) /
        static_cast<double>(b.total - a.total);
}

size_t
quietCount(const std::vector<Sample> &samples)
{
    return static_cast<size_t>(
        std::count_if(samples.begin(), samples.end(),
                      [](const Sample &s) { return s.steal <= kQuietSteal; }));
}

double
quietCut(const std::vector<Sample> &samples)
{
    if (quietCount(samples) >= std::min<size_t>(3, samples.size()))
        return kQuietSteal;
    std::vector<double> steal;
    for (const auto &s : samples)
        steal.push_back(s.steal);
    return median(steal);
}

double
quietMedian(const std::vector<Sample> &samples)
{
    const double cut = quietCut(samples);
    std::vector<double> quiet;
    for (const auto &s : samples) {
        if (s.steal <= cut)
            quiet.push_back(s.value);
    }
    return median(quiet);
}

} // namespace perfbench
