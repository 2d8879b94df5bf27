/**
 * @file
 * Tests of the benchmark's own code: seeded inputs, metric naming and
 * the BENCHMARK.json tables, the tail-percentile rule, and failed-op
 * accounting.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "corpus_gen.hh"
#include "layers.hh"
#include "mix.hh"
#include "report.hh"
#include "service/json.hh"
#include "stages.hh"
#include "stats.hh"
#include "workloads/corpus.hh"

using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

std::vector<std::string>
requestLines(uint64_t seed, size_t conn, size_t n)
{
    RequestMix mix(seed, conn, {"A/x.1", "B/y.2", "C/z.3"}, 0.25);
    std::vector<std::string> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(mix.next().line);
    return out;
}

/** Record the plan's first @p n traces and @return the manifest dump. */
std::string
corpusDump(uint64_t seed, size_t n, const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::vector<CorpusItem> plan = planCorpus(seed);
    plan.resize(n);
    writeCorpus(plan, dir, nullptr);
    return mica::workloads::scanCorpus(dir, kShardSize).dump();
}

mica::service::JsonValue
benchmarkJson()
{
    std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) +
                     "/../BENCHMARK.json");
    std::stringstream ss;
    ss << in.rdbuf();
    mica::service::JsonValue doc;
    EXPECT_TRUE(mica::service::parseJson(ss.str(), &doc));
    return doc;
}

std::vector<std::string>
declaredNames(const mica::service::JsonValue &doc, const char *list)
{
    std::vector<std::string> names;
    const auto *arr = doc.find(list);
    EXPECT_NE(arr, nullptr) << list;
    if (arr) {
        for (const auto &m : arr->items())
            names.push_back(m.find("name")->asString());
    }
    return names;
}

} // namespace

TEST(Seeding, SameSeedSameCorpusPlan)
{
    const auto files = [](uint64_t seed) {
        std::vector<std::string> f;
        for (const auto &it : planCorpus(seed))
            f.push_back(it.file);
        return f;
    };
    EXPECT_EQ(files(7), files(7));
    EXPECT_NE(files(7), files(8));
    const auto plan = planCorpus(7);
    EXPECT_EQ(plan.size(), 122 * kSlotsPerKernel);
    std::set<std::string> distinct;
    for (const auto &it : plan) {
        EXPECT_GE(it.budget, kMinBudget);
        EXPECT_LE(it.budget, kMaxBudget);
        distinct.insert(it.file);
    }
    EXPECT_EQ(distinct.size(), plan.size()) << "trace names must be distinct";
}

TEST(Seeding, SameSeedSameCorpusDigest)
{
    const std::string base = ::testing::TempDir() + "perfbench_corpus";
    const std::string a = corpusDump(7, 3, base + "_a");
    const std::string b = corpusDump(7, 3, base + "_b");
    const std::string c = corpusDump(8, 3, base + "_c");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    for (const char *s : {"_a", "_b", "_c"})
        fs::remove_all(base + s);
}

TEST(Seeding, SameSeedSameRequestSequence)
{
    EXPECT_EQ(requestLines(7, 0, 500), requestLines(7, 0, 500));
    EXPECT_NE(requestLines(7, 0, 500), requestLines(8, 0, 500));
    EXPECT_NE(requestLines(7, 0, 500), requestLines(7, 1, 500))
        << "connections draw independent streams";
}

TEST(Seeding, MixIsMostlyKnnAndDrawsEveryReadOp)
{
    RequestMix mix(3, 0, {"A/x.1"}, 0.25);
    std::vector<size_t> count(kNumMixOps, 0);
    for (size_t i = 0; i < 20000; ++i)
        ++count[static_cast<size_t>(mix.next().op)];
    EXPECT_GT(count[static_cast<size_t>(MixOp::Knn)], 15000u);
    for (MixOp op : {MixOp::Radius, MixOp::Profile, MixOp::Ping,
                     MixOp::Redundant})
        EXPECT_GT(count[static_cast<size_t>(op)], 0u) << mixOpName(op);
    EXPECT_EQ(count[static_cast<size_t>(MixOp::Reindex)], 0u);
}

TEST(MetricNames, AllNamesMatchTheContractPattern)
{
    std::set<std::string> seen;
    for (const auto *list : {&endToEndMetricNames(), &perLayerMetricNames()})
        for (const auto &n : *list) {
            EXPECT_TRUE(metricNameValid(n)) << n;
            EXPECT_TRUE(seen.insert(n).second) << "duplicate " << n;
        }
    for (const auto &w : workloadSpecs())
        EXPECT_TRUE(metricNameValid(w.name)) << w.name;
    for (const char *bad : {"", ".lead", "-lead", "sp ace", "uni/code",
                            "q\"uote"})
        EXPECT_FALSE(metricNameValid(bad)) << bad;
    EXPECT_FALSE(metricNameValid(std::string(65, 'a')));
    EXPECT_TRUE(metricNameValid(std::string(64, 'a')));
}

TEST(MetricNames, BenchmarkJsonDeclaresExactlyTheReportedMetrics)
{
    const auto doc = benchmarkJson();
    EXPECT_EQ(declaredNames(doc, "end_to_end"), endToEndMetricNames());
    EXPECT_EQ(declaredNames(doc, "per_layer"), perLayerMetricNames());
    std::vector<std::string> workloads;
    for (const auto &w : workloadSpecs())
        workloads.push_back(w.name);
    EXPECT_EQ(declaredNames(doc, "workloads"), workloads);
}

TEST(Percentiles, P99NeedsAThousandSamples)
{
    EXPECT_FALSE(percentileReportable(0, 0.99));
    EXPECT_FALSE(percentileReportable(999, 0.99));
    EXPECT_TRUE(percentileReportable(1000, 0.99));
    EXPECT_TRUE(percentileReportable(5000, 0.99));
    EXPECT_FALSE(percentileReportable(19, 0.50));
    EXPECT_TRUE(percentileReportable(20, 0.50));
}

TEST(Percentiles, Medians)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    EXPECT_EQ(median(v), 500.5);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({}), 0);
}

TEST(Percentiles, ServeSamplesNeedEnoughWindows)
{
    constexpr size_t knn = static_cast<size_t>(MixOp::Knn);
    const auto window = [](size_t c, size_t w, size_t nKnn, double p50,
                           double p99) {
        ServeSamples::ConnWindow cw;
        cw.conn = c;
        cw.window = w;
        cw.n[knn] = nKnn;
        cw.p50[knn] = p50;
        cw.knnP99 = p99;
        return cw;
    };
    ServeSamples sv;
    sv.windowSteal = {0, 0, 0, 0, 0, 0.5};
    EXPECT_EQ(sv.throughput(), 0) << "no replies, no rate";
    for (size_t w = 0; w < 5; ++w)
        sv.connWindows.push_back(window(0, w, 999, 50.0 + w, 0.0));
    // Window 6 is the partial last one and window 5 was stolen from.
    sv.connWindows.push_back(window(0, 5, 999, 500.0, 0.0));
    sv.connWindows.push_back(window(0, 6, 999, 1.0, 0.0));
    EXPECT_EQ(sv.knnP50(), 52);
    EXPECT_DOUBLE_EQ(sv.throughput(), 1e6 / 52);
    EXPECT_THROW(sv.knnP99(), std::runtime_error)
        << "no window has the 1000 samples a p99 needs";
    for (size_t w = 0; w < 5; ++w)
        sv.connWindows.push_back(window(1, w, 1000, 60.0, 90.0 + w));
    EXPECT_EQ(sv.knnP99(), 92);
    // A second connection adds its rate.
    EXPECT_DOUBLE_EQ(sv.throughput(), 1e6 / 52 + 1e6 / 60);
}

TEST(Percentiles, ThroughputWeighsEveryOpByItsCount)
{
    ServeSamples::ConnWindow cw;
    EXPECT_EQ(cw.requests(), 0u);
    EXPECT_EQ(cw.medianBusyUs(), 0);
    cw.n[static_cast<size_t>(MixOp::Knn)] = 90;
    cw.p50[static_cast<size_t>(MixOp::Knn)] = 50;
    cw.n[static_cast<size_t>(MixOp::Reindex)] = 1;
    cw.p50[static_cast<size_t>(MixOp::Reindex)] = 1000;
    EXPECT_EQ(cw.requests(), 91u);
    EXPECT_DOUBLE_EQ(cw.medianBusyUs(), 5500);
    // Two windows of one connection pool their requests and time: a
    // window with two slow reindexes does not stand alone.
    ServeSamples sv;
    sv.windowSteal = {0, 0};
    sv.connWindows = {cw, cw};
    sv.connWindows[1].window = 1;
    sv.connWindows[1].n[static_cast<size_t>(MixOp::Reindex)] = 2;
    EXPECT_DOUBLE_EQ(sv.throughput(), 183.0 / (5500 + 6500) * 1e6);
}

TEST(FailureCounting, MismatchesCountAgainstAttempted)
{
    OpTally t;
    EXPECT_FALSE(t.correct()) << "nothing attempted is not a pass";
    EXPECT_TRUE(t.record(true));
    EXPECT_FALSE(t.record(false));
    t.recordMany(10, 3);
    EXPECT_EQ(t.attempted, 12u);
    EXPECT_EQ(t.failed, 4u);
    EXPECT_FALSE(t.correct());
    OpTally clean;
    clean.recordMany(5, 0);
    EXPECT_TRUE(clean.correct());
}

TEST(FailureCounting, ResultLineCarriesTheTally)
{
    OpTally t;
    t.recordMany(4, 1);
    const std::string line = resultJson(t, {{"x_s", 1.5, "s"}});
    mica::service::JsonValue doc;
    ASSERT_TRUE(mica::service::parseJson(line, &doc));
    EXPECT_FALSE(doc.find("correct")->asBool());
    EXPECT_EQ(doc.find("attempted")->asCount(), 4);
    EXPECT_EQ(doc.find("failed")->asCount(), 1);
    EXPECT_EQ(doc.find("metrics")->find("x_s")->find("value")->asDouble(),
              1.5);
    EXPECT_THROW(resultJson(t, {{"bad name", 1.0, "s"}}), std::runtime_error);
    EXPECT_THROW(resultJson(t, {{"nan_s", std::nan(""), "s"}}),
                 std::runtime_error);
}

TEST(Percentiles, QuietMedianSkipsStolenUnits)
{
    // On a quiet host every unit counts.
    EXPECT_EQ(quietMedian({{1, 0}, {2, 0}, {3, 0}}), 2);
    // Units measured while other guests took CPU time are left out.
    EXPECT_EQ(quietMedian({{1.0, 0.00}, {1.2, 0.01}, {9.0, 0.20},
                           {8.0, 0.15}}),
              1.1);
    EXPECT_EQ(quietMedian({}), 0);
    // Below kQuietSteal every unit counts, not only the quieter half.
    EXPECT_EQ(quietMedian({{1, 0.0}, {2, 0.01}, {3, 0.019}}), 2);
    // Three quiet units are enough on their own, however many were hit.
    EXPECT_EQ(quietMedian({{1, 0.0}, {2, 0.01}, {3, 0.0}, {7, 0.05},
                           {8, 0.06}, {9, 0.2}, {10, 0.1}}),
              2);
    EXPECT_EQ(quietCount({{1, 0.0}, {2, 0.02}, {3, 0.021}}), 2u);
    EXPECT_EQ(stealShare({10, 100}, {20, 200}), 0.1);
    EXPECT_EQ(stealShare({10, 100}, {10, 100}), 0.0);
}
