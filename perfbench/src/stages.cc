#include "stages.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <thread>

#include "methodology/cluster_report.hh"
#include "methodology/genetic_selector.hh"
#include "methodology/subsetting.hh"
#include "methodology/workload_space.hh"
#include "pipeline/corpus_runner.hh"
#include "pipeline/thread_pool.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "stats/rng.hh"
#include "tracer.hh"
#include "util/quantile.hh"
#include "workloads/registry.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using mica::experiments::DatasetConfig;
using mica::experiments::SuiteDataset;

namespace
{

/** Repetitions (after the warm-up) every fixed-work stage takes at least. */
constexpr size_t kMinProfileReps = 3;
/**
 * A repeated stage that has not yet measured its minimum on a quiet
 * host (stats.hh) runs on past its budget, by up to this share of its
 * budget, so a steal burst from another guest costs time, not
 * accuracy. Bounded so a run stays well inside its time limit when
 * the whole run is stolen from.
 */
constexpr double kQuietExtension = 0.5;
/**
 * How long the GA runs before it stalls depends on its seed, so the
 * methodology stage times one chain per seed over many seeds drawn
 * from the run seed and reports the median chain: methodology_s then
 * does not swing with the one seed a run happens to draw.
 */
constexpr size_t kMinMethodologyChains = 48;
/** Samples the daemon loop gathers before it may stop. */
constexpr size_t kMinKnn = 1000;       // p99 with 10 samples beyond it
// A p50 with 10 samples beyond it (percentileReportable).
constexpr size_t kMinRedundant = 21;
constexpr size_t kMinReindex = 21;
/** Connection windows that must each report a knn p99 (1000 samples). */
constexpr size_t kMinTailWindows = 5;

/** Connection 0 sends a reindex this often during the daemon loop. */
constexpr double kReindexPeriodS = 0.4;
/** Corpus traces re-recorded and compared byte for byte per run. */
constexpr size_t kTraceChecks = 8;
/**
 * Daemon replies each connection keeps for the output check: a seeded
 * uniform sample of all its replies (reservoir sampling), so the check
 * covers the whole loop in fixed memory.
 */
constexpr size_t kChecksPerConn = 500;
/** Length of one daemon-loop window. */
constexpr double kWindowS = 1.0;
/** Capacity the loop reserves for one connection's round trips of one
 * op in a window (knn, and every other op), and for its redundant and
 * reindex round trips over the loop. */
constexpr size_t kKnnWindowCap = size_t(1) << 16;
constexpr size_t kOpWindowCap = size_t(1) << 13;
constexpr size_t kRareOpCap = size_t(1) << 13;

uint64_t
datasetRecords(const SuiteDataset &ds)
{
    uint64_t n = 0;
    for (const auto &p : ds.micaProfiles)
        n += p.instCount;
    for (const auto &p : ds.hpcProfiles)
        n += p.instCount;
    return n;
}

/** @return a digest of every profile value in @p ds. */
uint64_t
datasetDigest(const SuiteDataset &ds)
{
    uint64_t h = fnv("dataset", 7);
    for (size_t i = 0; i < ds.micaProfiles.size(); ++i) {
        const auto &p = ds.micaProfiles[i];
        h = fnv(p.name.data(), p.name.size(), h);
        h = fnv(&p.instCount, sizeof(p.instCount), h);
        const std::vector<double> mv = p.toVector();
        h = fnv(mv.data(), mv.size() * sizeof(double), h);
        const std::vector<double> hv = ds.hpcProfiles[i].toVector();
        h = fnv(hv.data(), hv.size() * sizeof(double), h);
    }
    return h;
}

/** @return peak resident set size of this process, MiB. */
double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Append @p part's rows (and failures) to @p into. */
void
appendDataset(SuiteDataset &into, SuiteDataset part)
{
    for (size_t i = 0; i < part.benchmarks.size(); ++i) {
        into.benchmarks.push_back(std::move(part.benchmarks[i]));
        into.micaProfiles.push_back(std::move(part.micaProfiles[i]));
        into.hpcProfiles.push_back(std::move(part.hpcProfiles[i]));
    }
    for (auto &f : part.failures)
        into.failures.push_back(std::move(f));
}

/** Profile the corpus shard by shard, as `mica corpus profile` does. */
SuiteDataset
profileCorpusShards(const RunContext &ctx, const std::string &outDir,
                    size_t *failedShards)
{
    const auto &m = ctx.manifest;
    mica::pipeline::CorpusRunOptions opt;
    opt.outDir = outDir;
    opt.rerunAll = true;
    std::vector<SuiteDataset> parts(m.shards.size());
    const auto outcomes = mica::pipeline::runCorpusShards(
        m, opt,
        [&](size_t i, const std::string &shardDir)
            -> mica::pipeline::ShardResult {
            Span sp("pipeline.corpus_shard");
            DatasetConfig c;
            c.traceFiles = m.shardFiles(i);
            c.traceLabel = "corpus:" + m.shards[i].name;
            c.cacheDir = shardDir;
            c.jobs = kWorkers;
            parts[i] = mica::experiments::collectSuiteDataset(c);
            return {parts[i].benchmarks.size(), parts[i].failures.size()};
        });
    *failedShards = 0;
    for (const auto &o : outcomes) {
        if (o.status == mica::pipeline::ShardOutcome::Status::Failed)
            ++*failedShards;
    }
    size_t rows = 0;
    for (const auto &p : parts)
        rows += p.benchmarks.size();
    SuiteDataset all;
    all.benchmarks.reserve(rows);
    all.micaProfiles.reserve(rows);
    all.hpcProfiles.reserve(rows);
    for (auto &p : parts)
        appendDataset(all, std::move(p));
    return all;
}

/** The corpus daemon's dataset config: every trace, one store. */
DatasetConfig
corpusServeConfig(const RunContext &ctx, const std::string &cacheDir)
{
    DatasetConfig c;
    c.traceFiles = ctx.traceFiles;
    c.traceLabel = "corpus";
    c.cacheDir = cacheDir;
    c.jobs = kWorkers;
    return c;
}

/** Build the daemon's startup snapshot from ctx.snapCfg. */
void
buildSnapshot(RunContext &ctx, mica::pipeline::ThreadPool *pool)
{
    const auto collect = [&](const DatasetConfig &c) {
        Span sp("pipeline.collect");
        return mica::experiments::collectSuiteDataset(c);
    };
    mica::service::SpaceChoice sc;
    sc.given = true;
    std::string err;
    const double t0 = nowSeconds();
    {
        Span sp("service.snapshot_build");
        ctx.snap = mica::service::buildServerSnapshot(ctx.snapCfg, sc, pool,
                                                      0, collect, &err);
    }
    ctx.snapshotBuildS.push_back(nowSeconds() - t0);
    if (!ctx.snap)
        throw std::runtime_error("snapshot build failed: " + err);
    ctx.quarantined += ctx.snap->ds.failures.size();
    const size_t expected = ctx.spec->population == Population::Registry
        ? mica::workloads::BenchmarkRegistry::instance().size()
        : ctx.plan.size();
    const size_t got = ctx.snap->ds.benchmarks.size();
    ctx.tally.recordMany(expected, expected - std::min(expected, got));
}

/**
 * Joins a thread when the scope ends, running @p stop first, so an
 * exception never destroys a joinable thread.
 */
class JoinGuard
{
  public:
    JoinGuard(std::thread &t, std::function<void()> stop)
        : t_(t), stop_(std::move(stop))
    {}
    ~JoinGuard()
    {
        if (t_.joinable()) {
            stop_();
            t_.join();
        }
    }
    JoinGuard(const JoinGuard &) = delete;
    JoinGuard &operator=(const JoinGuard &) = delete;

  private:
    std::thread &t_;
    std::function<void()> stop_;
};

/**
 * @return whether a repeated stage may stop at @p now: it has
 * @p minUnits units, its budget (ending at @p deadline) has passed, and
 * @p minUnits of them were quiet — or it has run kQuietExtension of
 * its budget (@p budgetS) past its deadline.
 */
bool
stageDone(const std::vector<Sample> &units, size_t minUnits, double now,
          double deadline, double budgetS)
{
    if (units.size() < minUnits || now < deadline)
        return false;
    return quietCount(units) >= minUnits ||
        now >= deadline + kQuietExtension * budgetS;
}

/** @return the reply's "generation" (ping and reindex), or -1. */
int64_t
replyGeneration(const std::string &reply)
{
    mica::service::JsonValue doc;
    std::string err;
    if (!mica::service::parseJson(reply, &doc, &err))
        return -1;
    const auto *result = doc.find("result");
    const auto *gen = result ? result->find("generation") : nullptr;
    return gen && gen->isNumber() ? gen->asCount() : -1;
}

} // namespace

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        {"sweep_registry", Population::Registry, 61, 0.4, 0.2, 0.4},
        {"replay_corpus", Population::Corpus, 5, 0.4, 0.2, 0.4},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const auto &s : workloadSpecs()) {
        if (name == s.name)
            return &s;
    }
    return nullptr;
}

std::string
RunContext::freshDir(const std::string &tag)
{
    const std::string dir =
        cfg.workDir + "/" + tag + "-" + std::to_string(dirCounter++);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

void
runSetup(RunContext &ctx)
{
    Span stage("stage.setup");
    mica::pipeline::ThreadPool pool(kWorkers);
    const auto &reg = mica::workloads::BenchmarkRegistry::instance();
    std::string lastDir;
    // Set-up runs its repetitions, and more (up to half as many again)
    // until a majority of that count was measured on a quiet host.
    const size_t reps = ctx.spec->setupReps;
    for (size_t rep = 0;
         rep < reps ||
         (quietCount(ctx.setupS) < reps / 2 + 1 && rep < reps + reps / 2);
         ++rep) {
        const UnitTimer timer;
        if (ctx.spec->population == Population::Registry) {
            Span sp("workloads.build_programs");
            std::vector<mica::isa::Program> progs;
            progs.reserve(reg.size());
            for (const auto &e : reg.all())
                progs.push_back(e.build());
            size_t nonEmpty = 0;
            for (const auto &p : progs)
                nonEmpty += p.code.empty() ? 0 : 1;
            ctx.tally.recordMany(reg.size(), reg.size() - nonEmpty);
            ctx.setupS.push_back(timer.stop());
            continue;
        }

        const std::string dir = ctx.freshDir("corpus");
        {
            Span sp("workloads.record_corpus");
            ctx.plan = planCorpus(ctx.cfg.seed);
            writeCorpus(ctx.plan, dir, &pool);
        }
        {
            Span sp("workloads.corpus_init");
            ctx.manifest = mica::workloads::scanCorpus(dir, kShardSize);
            mica::workloads::saveCorpus(ctx.manifest);
        }
        ctx.traceFiles.clear();
        for (size_t sh = 0; sh < ctx.manifest.shards.size(); ++sh) {
            for (auto &f : ctx.manifest.shardFiles(sh))
                ctx.traceFiles.push_back(std::move(f));
        }
        const std::string dump = ctx.manifest.dump();
        const uint64_t digest = fnv(dump.data(), dump.size());
        // Every set-up of one seed must produce the same corpus.
        if (rep == 0)
            ctx.manifestDigest = digest;
        else
            ctx.tally.record(digest == ctx.manifestDigest);
        ctx.tally.record(ctx.manifest.traceCount() == ctx.plan.size());
        ctx.setupS.push_back(timer.stop());
        if (!lastDir.empty())
            fs::remove_all(lastDir);
        lastDir = dir;
    }
    if (ctx.spec->population != Population::Corpus)
        return;

    // Output check, outside the timed set-up: a seeded sample of the
    // corpus must be byte-identical to interpreting the same kernel at
    // the same budget now.
    const std::string checkDir = ctx.freshDir("trace-check");
    mica::Rng pick(mica::Rng::childSeed(ctx.cfg.seed, 0xc4));
    for (size_t i = 0; i < kTraceChecks; ++i) {
        const CorpusItem &it = ctx.plan[pick.below(ctx.plan.size())];
        const std::string again = checkDir + "/" + std::to_string(i) + ".trace";
        recordKernel(reg.all()[it.kernel], it.budget, again);
        ctx.tally.record(readFileBytes(lastDir + "/" + it.file) ==
                         readFileBytes(again));
    }
    fs::remove_all(checkDir);
}

void
runProfile(RunContext &ctx, double budgetS)
{
    Span stage("stage.profile");
    const double deadline = nowSeconds() + budgetS;
    const bool registry = ctx.spec->population == Population::Registry;
    const size_t expected = registry
        ? mica::workloads::BenchmarkRegistry::instance().size()
        : ctx.plan.size();
    uint64_t firstDigest = 0;
    std::string lastDir;
    for (size_t rep = 0;; ++rep) {
        // Every repetition is cold: a fresh, empty store directory.
        const std::string dir = ctx.freshDir("profile");
        SuiteDataset ds;
        size_t failedShards = 0;
        const UnitTimer timer;
        {
            Span sp("stage.profile.rep");
            if (registry) {
                DatasetConfig c;
                c.maxInsts = kRegistryBudget;
                c.cacheDir = dir;
                c.jobs = kWorkers;
                Span collect("pipeline.collect");
                ds = mica::experiments::collectSuiteDataset(c);
            } else {
                ds = profileCorpusShards(ctx, dir, &failedShards);
            }
        }
        const Sample dt = timer.stop();

        ctx.quarantined += ds.failures.size();
        ctx.tally.recordMany(
            expected, expected - std::min(expected, ds.benchmarks.size()));
        ctx.tally.record(failedShards == 0);
        const uint64_t digest = datasetDigest(ds);
        if (rep == 0)
            firstDigest = digest;
        else
            ctx.tally.record(digest == firstDigest);
        if (rep > 0)    // rep 0 is the warm-up
            ctx.profileRepS.push_back(dt);
        ctx.recordsPerPass = datasetRecords(ds);
        ctx.dataset = std::move(ds);
        if (!lastDir.empty())
            fs::remove_all(lastDir);
        lastDir = dir;
        if (stageDone(ctx.profileRepS, kMinProfileReps, nowSeconds(),
                      deadline, budgetS))
            break;
    }
    ctx.registryStore = lastDir;
}

mica::Matrix
methodologyMatrix(const RunContext &ctx)
{
    const SuiteDataset &ds = ctx.dataset;
    if (ctx.spec->population == Population::Registry)
        return ds.micaMatrix();
    // Budget variants of one kernel are near-duplicates, so the
    // methodology runs on one profile per kernel: its longest trace.
    std::vector<const CorpusItem *> longest(
        mica::workloads::BenchmarkRegistry::instance().size(), nullptr);
    for (const auto &it : ctx.plan) {
        if (!longest[it.kernel] || it.budget > longest[it.kernel]->budget)
            longest[it.kernel] = &it;
    }
    SuiteDataset view;
    for (const CorpusItem *it : longest) {
        std::string name = it->file.substr(0, it->file.size() - 6);
        name.replace(name.find("__"), 2, "/");
        const size_t row = ds.indexOf(name);
        if (row == static_cast<size_t>(-1))
            throw std::runtime_error("corpus trace missing from the "
                                     "profiled dataset: " + name);
        view.benchmarks.push_back(ds.benchmarks[row]);
        view.micaProfiles.push_back(ds.micaProfiles[row]);
        view.hpcProfiles.push_back(ds.hpcProfiles[row]);
    }
    return view.micaMatrix();
}

void
runMethodology(RunContext &ctx, double budgetS)
{
    Span stage("stage.methodology");
    const mica::Matrix m = methodologyMatrix(ctx);
    mica::pipeline::ThreadPool pool(kWorkers);
    // One chain: select, cluster and subset under GA/k-means seeds
    // drawn from the run seed. @return what it chose.
    const auto chain = [&](size_t j) {
        Span sp("stage.methodology.chain");
        mica::GaConfig ga;
        ga.seed = mica::Rng::childSeed(ctx.cfg.seed, 0x6a00 + j);
        const uint64_t kmSeed = mica::Rng::childSeed(ctx.cfg.seed, 0x4b00 + j);
        const mica::WorkloadSpace ws(m, &pool);
        const mica::GaResult sel = mica::geneticSelect(ws, ga, &pool);
        mica::Matrix reduced = ws.normalized().selectCols(sel.selected);
        reduced.rowNames = m.rowNames;
        const mica::ClusterReport cr = mica::clusterBenchmarks(
            reduced, kMaxK, kmSeed, 0.9, 0.25, &pool);
        const mica::SubsetResult sr = mica::selectRepresentatives(
            reduced, kMaxK, kmSeed, 0.9, 0.25, &pool);
        std::string outcome;
        for (size_t c : sel.selected)
            outcome += std::to_string(c) + ",";
        outcome += "|k" + std::to_string(cr.chosenK) + "|";
        for (int a : cr.assignment)
            outcome += std::to_string(a) + ",";
        outcome += "|";
        for (size_t r : sr.selectedRows())
            outcome += std::to_string(r) + ",";
        return outcome;
    };
    const std::string warm = chain(0);
    const double deadline = nowSeconds() + budgetS;
    for (size_t j = 0;; ++j) {
        const UnitTimer timer;
        const std::string outcome = chain(j);
        ctx.methodologyRepS.push_back(timer.stop());
        // The chain is deterministic for a seed: the warm-up's seed
        // must choose the same again.
        if (j == 0)
            ctx.tally.record(outcome == warm);
        if (stageDone(ctx.methodologyRepS, kMinMethodologyChains,
                      nowSeconds(), deadline, budgetS))
            break;
    }
}

void
prepareSnapshot(RunContext &ctx)
{
    if (ctx.snap)
        return;
    mica::pipeline::ThreadPool pool(kWorkers);
    if (ctx.spec->population == Population::Registry) {
        // The last sweep's store holds every profile: a warm start.
        ctx.snapCfg = DatasetConfig();
        ctx.snapCfg.maxInsts = kRegistryBudget;
        ctx.snapCfg.cacheDir = ctx.registryStore;
        ctx.snapCfg.jobs = kWorkers;
    } else {
        ctx.snapCfg = corpusServeConfig(ctx, ctx.freshDir("serve"));
    }
    buildSnapshot(ctx, &pool);
}

void
runServe(RunContext &ctx, double budgetS)
{
    Span stage("stage.serve");
    prepareSnapshot(ctx);

    mica::service::ServerOptions opt;
    opt.address = "unix:" + ctx.cfg.workDir + "/d.sock";
    opt.jobs = kWorkers;
    mica::service::SpaceChoice sc;
    sc.given = true;
    mica::service::Server server(opt, ctx.snap, ctx.snapCfg, sc);
    std::string err;
    if (!server.start(&err))
        throw std::runtime_error("daemon start failed: " + err);
    int serverRc = -1;
    std::thread loop([&] { serverRc = server.run(); });
    const JoinGuard loopGuard(loop, [&] { server.requestStop(); });

    std::vector<std::string> names;
    for (size_t i = 0; i < ctx.snap->idx.size(); ++i)
        names.push_back(ctx.snap->idx.nameOf(i));
    const double radius = kRadiusFrac * ctx.snap->maxPairDist;

    // Generations the daemon has published, as connection 0 has seen
    // them; reindexed snapshots hold the same data, so only a ping
    // reply (which names its generation) depends on which one answered.
    std::atomic<int64_t> liveGen{0};

    struct Checked
    {
        MixOp op = MixOp::Ping;
        std::string line;
        std::string reply;
        int64_t genLo = 0;  ///< generations the reply may carry
        int64_t genHi = 0;
    };
    // Full windows end at whole seconds; one more covers the last.
    const double minWallS = (kMinTailWindows + 1) * kWindowS;
    // The loop stops at the budget once it has enough samples and half
    // its budget's windows were quiet; kQuietExtension of a budget later
    // once it has enough samples; at three times the budget (or
    // minWallS) in any case.
    const double capS = 3 * std::max(budgetS, minWallS);
    const size_t minQuietWindows = std::max(
        kMinTailWindows, static_cast<size_t>(budgetS / kWindowS / 2));
    const double t0 = nowSeconds();
    const double deadline = t0 + budgetS;
    const double quietDeadline = deadline + kQuietExtension * budgetS;
    const double hardDeadline = t0 + capS;
    const size_t maxWindows = static_cast<size_t>(capS / kWindowS) + 2;

    // Everything a connection records, sized before the loop starts.
    struct ConnState
    {
        /** The current window's round trips, per op. */
        std::vector<std::vector<double>> buf =
            std::vector<std::vector<double>>(kNumMixOps);
        size_t win = 0;
        size_t index = 0;
        std::vector<ServeSamples::ConnWindow> windows;
        std::vector<double> redundantUs, reindexUs;
        std::vector<uint64_t> requests = std::vector<uint64_t>(kNumMixOps);
        std::vector<Checked> checks = std::vector<Checked>(kChecksPerConn);
        uint64_t candidates = 0;        ///< replies offered to checks
        OpTally tally;
        uint64_t reindexes = 0;

        /** Fold buf into the window it belongs to. */
        void
        closeWindow()
        {
            ServeSamples::ConnWindow w;
            w.conn = index;
            w.window = win;
            bool any = false;
            for (size_t op = 0; op < kNumMixOps; ++op) {
                std::vector<double> &v = buf[op];
                const size_t n = v.size();
                if (n == 0)
                    continue;
                any = true;
                const auto at = [&](double q) {
                    const auto k = v.begin() +
                        static_cast<std::ptrdiff_t>(
                            mica::util::quantileRank(q, n));
                    std::nth_element(v.begin(), k, v.end());
                    return *k;
                };
                if (op == static_cast<size_t>(MixOp::Knn) &&
                    percentileReportable(n, 0.99))
                    w.knnP99 = at(0.99);
                w.n[op] = n;
                w.p50[op] = at(0.50);
                v.clear();
            }
            if (any)
                windows.push_back(w);
        }
    };
    std::vector<ConnState> conns(kConnections);
    for (size_t c = 0; c < kConnections; ++c)
        conns[c].index = c;
    for (auto &st : conns) {
        // Touch the buffers now so the loop never grows them.
        for (size_t op = 0; op < kNumMixOps; ++op) {
            st.buf[op].assign(op == static_cast<size_t>(MixOp::Knn)
                                  ? kKnnWindowCap : kOpWindowCap,
                              0.0);
            st.buf[op].clear();
        }
        st.windows.reserve(maxWindows);
        st.redundantUs.assign(kRareOpCap, 0.0);
        st.redundantUs.clear();
        st.reindexUs.assign(kRareOpCap, 0.0);
        st.reindexUs.clear();
    }
    std::atomic<size_t> knnDone{0}, redundantDone{0}, reindexDone{0};

    // Host CPU times at every window boundary, for each window's steal.
    std::vector<CpuTimes> bounds = {readCpuTimes()};
    bounds.reserve(maxWindows + 1);
    std::atomic<size_t> quietWindows{0};
    std::atomic<bool> sampling{true};
    std::thread sampler([&] {
        for (size_t w = 1;; ++w) {
            while (sampling.load() && nowSeconds() < t0 + w * kWindowS)
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            if (!sampling.load())
                return;
            bounds.push_back(readCpuTimes());
            if (stealShare(bounds[w - 1], bounds[w]) <= kQuietSteal)
                quietWindows.fetch_add(1);
        }
    });
    const JoinGuard samplerGuard(sampler, [&] { sampling.store(false); });

    const auto enough = [&] {
        const double now = nowSeconds();
        return now >= t0 + minWallS && knnDone.load() >= kMinKnn &&
            redundantDone.load() >= kMinRedundant &&
            reindexDone.load() >= kMinReindex &&
            (quietWindows.load() >= minQuietWindows || now >= quietDeadline);
    };

    std::vector<std::thread> clients;
    try {
        for (size_t c = 0; c < kConnections; ++c) {
            clients.emplace_back([&, c] {
                ConnState &st = conns[c];
                mica::service::ServiceClient cli;
                std::string cerr;
                if (!cli.connect(opt.address, &cerr)) {
                    st.tally.record(false);
                    return;
                }
                RequestMix mix(ctx.cfg.seed, c, names, radius);
                mica::Rng pick(mica::Rng::childSeed(ctx.cfg.seed, 0xc8 + c));
                double nextReindex = t0 + kReindexPeriodS;
                std::string reply;
                for (;;) {
                    const double now = nowSeconds();
                    if (now >= hardDeadline || (now >= deadline && enough()))
                        break;
                    MixRequest r;
                    if (c == 0 && now >= nextReindex) {
                        r.op = MixOp::Reindex;
                        r.line = RequestMix::reindexLine();
                        nextReindex = now + kReindexPeriodS;
                    } else {
                        r = mix.next();
                    }
                    const int64_t genLo = liveGen.load();
                    const double s0 = nowSeconds();
                    const bool sent = cli.request(r.line, &reply, &cerr);
                    const double s1 = nowSeconds();
                    const double us = (s1 - s0) * 1e6;
                    if (!st.tally.record(sent))
                        break;
                    bool ok = reply.find("\"ok\":true") != std::string::npos;
                    if (r.op == MixOp::Reindex) {
                        // Only this connection reindexes, so generations
                        // step by one.
                        const int64_t gen = replyGeneration(reply);
                        ok = ok &&
                            gen == static_cast<int64_t>(st.reindexes) + 1;
                        if (ok) {
                            ++st.reindexes;
                            liveGen.store(gen);
                        }
                        st.reindexUs.push_back(us);
                        reindexDone.fetch_add(1);
                    } else {
                        // Reservoir sample: every reply so far is kept
                        // with the same chance.
                        const uint64_t seen = st.candidates++;
                        const uint64_t slot = seen < kChecksPerConn
                            ? seen : pick.below(seen + 1);
                        if (slot < kChecksPerConn) {
                            // A swap can land before connection 0 reads
                            // its reindex reply, hence the + 1.
                            Checked &ck = st.checks[slot];
                            ck.op = r.op;
                            ck.line = r.line;
                            ck.reply = reply;
                            ck.genLo = genLo;
                            ck.genHi = liveGen.load() + 1;
                        }
                    }
                    st.tally.record(ok);
                    const auto w = static_cast<size_t>((s1 - t0) / kWindowS);
                    if (w != st.win) {
                        st.closeWindow();
                        st.win = w;
                    }
                    st.buf[static_cast<size_t>(r.op)].push_back(us);
                    ++st.requests[static_cast<size_t>(r.op)];
                    if (r.op == MixOp::Knn) {
                        knnDone.fetch_add(1);
                    } else if (r.op == MixOp::Redundant) {
                        st.redundantUs.push_back(us);
                        redundantDone.fetch_add(1);
                    }
                }
                st.closeWindow();
            });
        }
    } catch (...) {
        for (auto &t : clients)
            t.join();
        throw;
    }
    for (auto &t : clients)
        t.join();
    sampling.store(false);
    sampler.join();
    server.requestStop();
    loop.join();
    ctx.tally.record(serverRc == 0);
    ServeSamples &sv = ctx.serve;
    for (size_t w = 0; w + 1 < bounds.size(); ++w)
        sv.windowSteal.push_back(stealShare(bounds[w], bounds[w + 1]));

    // Output check, outside the timed loop: sampled replies must be
    // byte-identical to in-process execution on the same snapshot.
    for (auto &st : conns) {
        const size_t kept = static_cast<size_t>(
            std::min<uint64_t>(st.candidates, kChecksPerConn));
        for (size_t i = 0; i < kept; ++i) {
            const Checked &ck = st.checks[i];
            std::string want =
                mica::service::executeLine(*ctx.snap, ck.line, true);
            bool genOk = true;
            if (ck.op == MixOp::Ping) {
                const int64_t gen = replyGeneration(ck.reply);
                genOk = gen >= ck.genLo && gen <= ck.genHi;
                const std::string g0 = "\"generation\":0";
                const size_t at = want.find(g0);
                if (at != std::string::npos)
                    want.replace(at, g0.size(),
                                 "\"generation\":" + std::to_string(gen));
            }
            ctx.tally.record(genOk && want == ck.reply);
        }
        ctx.tally.recordMany(st.tally.attempted, st.tally.failed);
        sv.connWindows.insert(sv.connWindows.end(), st.windows.begin(),
                              st.windows.end());
        sv.redundantUs.insert(sv.redundantUs.end(), st.redundantUs.begin(),
                              st.redundantUs.end());
        sv.reindexUs.insert(sv.reindexUs.end(), st.reindexUs.begin(),
                            st.reindexUs.end());
        for (size_t op = 0; op < kNumMixOps; ++op)
            sv.requests[op] += st.requests[op];
    }
}

size_t
ServeSamples::ConnWindow::requests() const
{
    size_t total = 0;
    for (size_t k : n)
        total += k;
    return total;
}

double
ServeSamples::ConnWindow::medianBusyUs() const
{
    double us = 0;
    for (size_t op = 0; op < kNumMixOps; ++op)
        us += static_cast<double>(n[op]) * p50[op];
    return us;
}

double
ServeSamples::throughput() const
{
    if (windowSteal.empty())
        throw std::runtime_error("daemon loop shorter than one window");
    std::vector<Sample> steal;
    for (double s : windowSteal)
        steal.push_back({0.0, s});
    const double cut = quietCut(steal);
    std::vector<double> reqs(kConnections), busyUs(kConnections);
    for (const auto &w : connWindows) {
        if (w.window < windowSteal.size() && windowSteal[w.window] <= cut &&
            w.conn < kConnections) {
            reqs[w.conn] += static_cast<double>(w.requests());
            busyUs[w.conn] += w.medianBusyUs();
        }
    }
    double rate = 0;
    for (size_t c = 0; c < kConnections; ++c) {
        if (busyUs[c] > 0)
            rate += reqs[c] / busyUs[c] * 1e6;
    }
    return rate;
}

double
ServeSamples::knnQuantile(bool p99) const
{
    constexpr size_t knn = static_cast<size_t>(MixOp::Knn);
    std::vector<Sample> perWindow;
    for (const auto &w : connWindows) {
        if (w.window < windowSteal.size() &&
            percentileReportable(w.n[knn], p99 ? 0.99 : 0.50))
            perWindow.push_back({p99 ? w.knnP99 : w.p50[knn],
                                 windowSteal[w.window]});
    }
    if (perWindow.size() < kMinTailWindows)
        throw std::runtime_error("too few windows with enough knn samples");
    return quietMedian(perWindow);
}

double
ServeSamples::knnP50() const
{
    return knnQuantile(false);
}

double
ServeSamples::knnP99() const
{
    return knnQuantile(true);
}

const std::vector<std::string> &
endToEndMetricNames()
{
    static const std::vector<std::string> names = {
        "setup_s",          "profile_records_per_s", "methodology_s",
        "serve_req_per_s",  "knn_p50_us",            "redundant_p50_us",
        "reindex_p50_ms",   "peak_rss_mb",
    };
    return names;
}

std::vector<Metric>
endToEndMetrics(const RunContext &ctx)
{
    // A median only with 10 samples beyond it, as every percentile.
    const auto p50 = [](const std::vector<double> &v, const char *what) {
        if (!percentileReportable(v.size(), 0.5))
            throw std::runtime_error(std::string("too few samples for ") +
                                     what + " p50");
        return median(v);
    };
    const auto quiet = [](const std::vector<Sample> &v, const char *what) {
        if (v.empty())
            throw std::runtime_error(std::string("no samples for ") + what);
        return quietMedian(v);
    };
    const ServeSamples &sv = ctx.serve;
    return {
        {"setup_s", quiet(ctx.setupS, "setup"), "s"},
        {"profile_records_per_s",
         static_cast<double>(ctx.recordsPerPass) /
             quiet(ctx.profileRepS, "profiling"),
         "1/s"},
        {"methodology_s", quiet(ctx.methodologyRepS, "methodology"), "s"},
        {"serve_req_per_s", sv.throughput(), "1/s"},
        {"knn_p50_us", sv.knnP50(), "us"},
        {"redundant_p50_us", p50(sv.redundantUs, "redundant"), "us"},
        {"reindex_p50_ms", p50(sv.reindexUs, "reindex") / 1e3, "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

} // namespace perfbench
