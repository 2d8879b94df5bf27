/**
 * @file
 * Small statistics and accounting helpers shared by the benchmark
 * stages: medians, the tail-percentile reporting rule, metric naming,
 * and failed-op accounting.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** @return the median of @p v (mean of the middle pair for even n). */
double median(std::vector<double> v);

/**
 * A tail percentile is only meaningful when enough samples lie beyond
 * it: with n samples, the nearest-rank q quantile
 * (mica::util::quantileRank) has n - ceil(q * n) samples above it, and
 * at least @p minBeyond of them are required (so p99 needs n >= 1000
 * and p50 n >= 20 at the default of 10).
 */
bool percentileReportable(size_t n, double q, size_t minBeyond = 10);

/**
 * @return whether @p name is a legal metric or workload name: 1 to 64
 * characters from [A-Za-z0-9_.-], starting with a letter or a digit.
 */
bool metricNameValid(const std::string &name);

/**
 * Failed-op accounting for one run: every checked operation counts as
 * attempted, every mismatch, error reply or quarantined item as
 * failed. A run is correct only when nothing failed.
 */
struct OpTally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Count one operation; @return @p ok. */
    bool
    record(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
        return ok;
    }

    /** Count @p n operations of which @p bad failed. */
    void
    recordMany(uint64_t n, uint64_t bad)
    {
        attempted += n;
        failed += bad;
    }

    bool correct() const { return attempted > 0 && failed == 0; }
};

/** FNV-1a over raw bytes, chained through @p h. */
uint64_t fnv(const void *data, size_t n,
             uint64_t h = 14695981039346656037ull);

/** @return seconds on the steady clock (arbitrary epoch). */
double nowSeconds();

/** Aggregate host CPU time from /proc/stat, in clock ticks. */
struct CpuTimes
{
    uint64_t steal = 0;
    uint64_t total = 0;
};

/** @return the host's CPU times now (zeros when unavailable). */
CpuTimes readCpuTimes();

/**
 * @return the share of CPU time between @p a and @p b that the
 * hypervisor gave to other guests (0 when unknown).
 */
double stealShare(const CpuTimes &a, const CpuTimes &b);

/** One timed unit of work and the CPU-time share stolen during it. */
struct Sample
{
    double value = 0.0;
    double steal = 0.0;
};

/** Times one unit of work: wall seconds plus steal share. */
class UnitTimer
{
  public:
    UnitTimer() : t0_(nowSeconds()), c0_(readCpuTimes()) {}

    /** @return seconds since construction and the steal share. */
    Sample
    stop() const
    {
        const double s = nowSeconds() - t0_;
        return {s, stealShare(c0_, readCpuTimes())};
    }

  private:
    double t0_;
    CpuTimes c0_;
};

/** Steal share up to which a unit counts as measured on a quiet host. */
constexpr double kQuietSteal = 0.02;

/** @return how many of @p samples have a steal share of at most kQuietSteal. */
size_t quietCount(const std::vector<Sample> &samples);

/**
 * @return the steal share up to which a unit of @p samples counts as
 * quiet: kQuietSteal when at least 3 units (or all) are that quiet,
 * otherwise the median steal share (the quieter half).
 */
double quietCut(const std::vector<Sample> &samples);

/**
 * On a shared host, other guests take CPU time in bursts; a unit
 * measured during one is slower for reasons outside the program (a 1-s
 * daemon window with 15% steal completes a quarter of the requests of
 * one with 1%). @return the median value over the quiet units (steal
 * share at most quietCut). 0 when @p samples is empty.
 */
double quietMedian(const std::vector<Sample> &samples);

} // namespace perfbench
