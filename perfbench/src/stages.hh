/**
 * @file
 * The benchmark's workloads and the stages they run.
 *
 * Every workload runs the pipeline a mica user runs, over its own
 * population: set-up (the inputs), profiling, the methodology chain
 * (GA key-characteristic selection, BIC cluster sweep, subsetting),
 * and similarity search through the `mica serve` daemon. Stages run one after another, never
 * overlapping. Each fixed-work stage is repeated after a warm-up and
 * reports the median; the daemon stage is a closed loop whose
 * latencies are kept per op type.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus_gen.hh"
#include "experiments/experiments.hh"
#include "mix.hh"
#include "service/query_engine.hh"
#include "stats.hh"
#include "workloads/corpus.hh"

namespace perfbench
{

/** Profiling and daemon sizing for a 4-core host. */
constexpr unsigned kWorkers = 2;
constexpr size_t kConnections = 2;
/** The registry sweep's per-benchmark budget (~47M records, MICA+HPC). */
constexpr uint64_t kRegistryBudget = 200000;
/** Traces per corpus shard (the `corpus init` default). */
constexpr size_t kShardSize = 16;
/** The radius op's bound, as a share of the population's max distance. */
constexpr double kRadiusFrac = 0.05;
/** The BIC sweep's ceiling (the paper's, and the CLI default). */
constexpr size_t kMaxK = 70;

/** What a workload profiles and serves. */
enum class Population
{
    Registry,   ///< the 122 registry kernels, interpreted
    Corpus,     ///< the seeded v2 trace corpus, replayed
};

/** One workload: its population and how the run's time is split. */
struct WorkloadSpec
{
    const char *name;
    Population population;
    size_t setupReps;
    double profileShare;        ///< of --seconds
    double methodologyShare;
    double serveShare;
};

/** @return the workload table (sweep_registry, replay_corpus). */
const std::vector<WorkloadSpec> &workloadSpecs();

/** @return the spec named @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Invocation parameters. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir;    ///< working directory inside the checkout
};

/**
 * What the daemon loop measured. Round trips are folded, as the loop
 * runs, into tables the loop allocates before it starts, so the
 * benchmark's own bookkeeping does not grow with daemon throughput
 * (peak_rss_mb stays the program's figure). Each connection's round
 * trips are reduced per op and 1-s window to a count and a median (and
 * a knn p99). Throughput and knn quantiles are taken over the quiet
 * full windows (quietCut), so a burst of noise from outside the process
 * moves one window, not the run's figure. Redundant and reindex round
 * trips are rare and also kept exactly.
 */
struct ServeSamples
{
    /** One connection's round trips in one window, per op (MixOp order). */
    struct ConnWindow
    {
        size_t conn = 0;
        size_t window = 0;
        std::array<size_t, kNumMixOps> n{};
        std::array<double, kNumMixOps> p50{};  ///< microseconds
        double knnP99 = 0.0;    ///< microseconds; 0 unless n makes it reportable

        /** @return requests completed in the window, all ops. */
        size_t requests() const;
        /**
         * @return microseconds the window's requests take if each takes
         * its op's median round trip of the window
         */
        double medianBusyUs() const;
    };

    std::vector<ConnWindow> connWindows;
    std::vector<double> redundantUs;
    std::vector<double> reindexUs;
    /** Requests completed per op (MixOp order) over the whole loop. */
    std::vector<uint64_t> requests = std::vector<uint64_t>(kNumMixOps);
    /** Steal share of each full window, in window order. */
    std::vector<double> windowSteal;

    /**
     * @return requests per second of the closed loop at median round
     * trips: per connection, the requests of its quiet full windows ÷
     * their medianBusyUs, summed over connections. A stall from outside
     * the process (a descheduled thread) delays a few requests, which
     * moves the medians little where it would cut the count of requests
     * a window completes; a change in any op's cost moves the figure by
     * that op's share of the loop's time.
     */
    double throughput() const;
    /** @return the knn p50, quiet median over connection windows. */
    double knnP50() const;
    /**
     * @return the knn p99, quiet median over the connection windows
     * that hold enough samples to report it
     */
    double knnP99() const;

  private:
    double knnQuantile(bool p99) const;
};

/** State the stages share within one run. */
struct RunContext
{
    RunConfig cfg;
    const WorkloadSpec *spec = nullptr;
    OpTally tally;

    // Inputs (set-up).
    std::vector<CorpusItem> plan;
    mica::workloads::CorpusManifest manifest;
    std::vector<std::string> traceFiles;
    uint64_t manifestDigest = 0;

    // Profiling results of the population.
    mica::experiments::SuiteDataset dataset;
    uint64_t recordsPerPass = 0;
    std::vector<Sample> profileRepS;
    std::string registryStore;      ///< last registry sweep's store

    // Methodology: one sample per chain.
    std::vector<Sample> methodologyRepS;

    // Daemon.
    mica::experiments::DatasetConfig snapCfg;
    std::shared_ptr<const mica::service::ServerSnapshot> snap;
    std::vector<Sample> setupS;
    std::vector<double> snapshotBuildS;
    ServeSamples serve;
    size_t quarantined = 0;

    /** @return a fresh directory under the run's work directory. */
    std::string freshDir(const std::string &tag);
    size_t dirCounter = 0;
};

/** Time the set-up stage (RunContext::setupS). */
void runSetup(RunContext &ctx);

/** Time the profiling stage (RunContext::profileRepS). */
void runProfile(RunContext &ctx, double budgetS);

/**
 * Time the methodology chain (RunContext::methodologyRepS), once per
 * GA/k-means seed drawn from the run seed, after a warm-up chain.
 */
void runMethodology(RunContext &ctx, double budgetS);

/** Build the daemon snapshot unless set-up already did. */
void prepareSnapshot(RunContext &ctx);

/** Run the closed-loop daemon stage (RunContext::serve). */
void runServe(RunContext &ctx, double budgetS);

/** @return the methodology input matrix for the population. */
mica::Matrix methodologyMatrix(const RunContext &ctx);

/** @return the end-to-end metric names, in reporting order. */
const std::vector<std::string> &endToEndMetricNames();

/** @return the end-to-end metrics of a finished untraced run. */
std::vector<Metric> endToEndMetrics(const RunContext &ctx);

} // namespace perfbench
