#include "layers.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "isa/interpreter.hh"
#include "methodology/cluster_report.hh"
#include "methodology/genetic_selector.hh"
#include "methodology/subsetting.hh"
#include "methodology/workload_space.hh"
#include "mica/ilp.hh"
#include "mica/inst_mix.hh"
#include "mica/ppm.hh"
#include "mica/reg_traffic.hh"
#include "mica/runner.hh"
#include "mica/strides.hh"
#include "mica/working_set.hh"
#include "pipeline/parallel_collector.hh"
#include "pipeline/profile_store.hh"
#include "pipeline/thread_pool.hh"
#include "service/protocol.hh"
#include "stats/distance.hh"
#include "stats/pca.hh"
#include "trace/columnar.hh"
#include "trace/trace_file.hh"
#include "tracer.hh"
#include "uarch/hpc_runner.hh"
#include "workloads/registry.hh"

namespace perfbench
{

namespace fs = std::filesystem;

namespace
{

/** Records interpreted per registry kernel for the in-memory buffer. */
constexpr size_t kSliceRecords = 8192;
/** Analyzer batch size, as the analysis engine uses. */
constexpr size_t kBatch = 1024;
/** In-process service samples per op (redundant is the heavy one). */
constexpr size_t kServiceSamples = 200;
constexpr size_t kRedundantSamples = 5;
/** Repetitions of the coarse methodology and index probes. */
constexpr size_t kProbeReps = 3;

/** Replays an in-memory record range as zero-copy spans. */
class SpanSource : public mica::TraceSource
{
  public:
    SpanSource(const mica::InstRecord *p, size_t n) : p_(p), n_(n) {}

    bool
    next(mica::InstRecord &r) override
    {
        if (pos_ >= n_)
            return false;
        r = p_[pos_++];
        return true;
    }

    size_t
    nextSpan(const mica::InstRecord *&span, mica::InstRecord *,
             size_t n) override
    {
        const size_t k = std::min(n, n_ - pos_);
        span = p_ + pos_;
        pos_ += k;
        return k;
    }

    bool
    reset() override
    {
        pos_ = 0;
        return true;
    }

  private:
    const mica::InstRecord *p_;
    size_t n_;
    size_t pos_ = 0;
};

/** The interpreted record buffer, one slice per registry kernel. */
struct RecordBuffer
{
    std::vector<mica::InstRecord> recs;
    std::vector<std::pair<size_t, size_t>> slices;   ///< (offset, length)
};

double
spanSeconds(const char *name)
{
    return static_cast<double>(Tracer::totalNs(name)) / 1e9;
}

double
medianSpanUs(const char *name)
{
    std::vector<double> us;
    for (uint64_t d : Tracer::durations(name))
        us.push_back(static_cast<double>(d) / 1e3);
    if (us.empty())
        throw std::runtime_error(std::string("no spans named ") + name);
    return median(us);
}

double
perSecond(uint64_t work, const char *span)
{
    const double s = spanSeconds(span);
    if (s <= 0.0)
        throw std::runtime_error(std::string("no time in ") + span);
    return static_cast<double>(work) / s;
}

RecordBuffer
interpretBuffer()
{
    const auto &reg = mica::workloads::BenchmarkRegistry::instance();
    RecordBuffer b;
    b.recs.resize(reg.size() * kSliceRecords);
    size_t off = 0;
    for (const auto &e : reg.all()) {
        const mica::isa::Program prog = e.build();
        mica::isa::Interpreter interp(prog);
        size_t got = 0;
        {
            Span sp("isa.interp");
            while (got < kSliceRecords) {
                const size_t n = interp.nextBatch(b.recs.data() + off + got,
                                                  kSliceRecords - got);
                if (n == 0)
                    break;
                got += n;
            }
        }
        b.slices.emplace_back(off, got);
        off += got;
    }
    b.recs.resize(off);
    return b;
}

/** Encode then decode the buffer in v2 chunks; @return records. */
uint64_t
probeColumnar(const RecordBuffer &b, OpTally &tally)
{
    constexpr size_t kChunk = mica::TraceFileWriter::kChunkRecordsV2;
    struct Chunk
    {
        std::string bytes;
        uint32_t cols[mica::columnar::kNumColumns];
        size_t n;
    };
    std::vector<Chunk> chunks;
    {
        Span sp("trace.v2_encode");
        for (size_t off = 0; off < b.recs.size(); off += kChunk) {
            Chunk c;
            c.n = std::min(kChunk, b.recs.size() - off);
            mica::columnar::encodeChunk(b.recs.data() + off, c.n, c.bytes,
                                        c.cols);
            chunks.push_back(std::move(c));
        }
    }
    std::vector<mica::InstRecord> out(kChunk);
    size_t off = 0;
    bool same = true;
    for (const auto &c : chunks) {
        {
            Span sp("trace.v2_decode");
            mica::columnar::decodeChunk(c.bytes.data(), c.cols, c.n,
                                        out.data(), "probe");
        }
        for (size_t i = 0; i < c.n && same; ++i) {
            const mica::InstRecord want =
                mica::columnar::canonicalRecord(b.recs[off + i]);
            same = std::memcmp(&want, &out[i], sizeof(want)) == 0;
        }
        off += c.n;
    }
    tally.record(same);
    return b.recs.size();
}

/**
 * Run one analyzer family alone over every slice, fresh per slice.
 * Its result must equal the same characteristic of the full profile
 * (which also keeps the compiler from discarding the work).
 */
template <typename Analyzer, typename Result>
void
runFamily(const RecordBuffer &b, const std::vector<mica::MicaProfile> &full,
          const char *span, size_t column, Result result, OpTally &tally)
{
    for (size_t s = 0; s < b.slices.size(); ++s) {
        const auto [off, len] = b.slices[s];
        Analyzer a;
        {
            Span sp(span);
            for (size_t i = 0; i < len; i += kBatch)
                a.acceptBatch(b.recs.data() + off + i,
                              std::min(kBatch, len - i));
            a.finish();
        }
        tally.record(static_cast<double>(result(a)) == full[s][column]);
    }
}

const std::array<const char *, 6> kFamilies = {
    "ppm", "ilp", "reg_traffic", "strides", "working_set", "inst_mix"};
const std::array<const char *, 6> kFamilySpans = {
    "mica.ppm", "mica.ilp", "mica.reg_traffic",
    "mica.strides", "mica.working_set", "mica.inst_mix"};

void
probeAnalyzers(const RecordBuffer &b, OpTally &tally)
{
    std::vector<mica::MicaProfile> full;
    for (const auto &[off, len] : b.slices) {
        SpanSource src(b.recs.data() + off, len);
        Span sp("mica.full_profile");
        full.push_back(mica::collectMicaProfile(src, "probe"));
    }
    runFamily<mica::PpmBranchAnalyzer>(
        b, full, kFamilySpans[0], mica::PpmGAg,
        [](const auto &a) { return a.missRateGAg(); }, tally);
    runFamily<mica::IlpAnalyzer>(
        b, full, kFamilySpans[1], mica::Ilp32,
        [](const auto &a) { return a.ipc(0); }, tally);
    runFamily<mica::RegTrafficAnalyzer>(
        b, full, kFamilySpans[2], mica::AvgInputOperands,
        [](const auto &a) { return a.avgInputOperands(); }, tally);
    runFamily<mica::StrideAnalyzer>(
        b, full, kFamilySpans[3], mica::LocalLoadStrideEq0,
        [](const auto &a) { return a.localLoad().prob(0); }, tally);
    runFamily<mica::WorkingSetAnalyzer>(
        b, full, kFamilySpans[4], mica::DWorkSet32B,
        [](const auto &a) { return a.dBlocks(); }, tally);
    runFamily<mica::InstMixAnalyzer>(
        b, full, kFamilySpans[5], mica::PctLoads,
        [](const auto &a) { return a.pctLoads(); }, tally);
    for (size_t s = 0; s < b.slices.size(); ++s) {
        const auto [off, len] = b.slices[s];
        SpanSource src(b.recs.data() + off, len);
        mica::uarch::HwCounterProfile hpc;
        {
            Span sp("uarch.hpc");
            hpc = mica::uarch::collectHwProfile(src, "probe", 0);
        }
        tally.record(hpc.instCount == full[s].instCount);
    }
}

/**
 * The population's trace files: the corpus itself, or (registry) the
 * buffer's slices written as v2 traces into @p dir.
 */
std::vector<std::string>
populationTraces(const RunContext &ctx, const RecordBuffer &b,
                 const std::string &dir, std::string *traceDir)
{
    if (ctx.spec->population == Population::Corpus) {
        *traceDir = ctx.manifest.root;
        return ctx.traceFiles;
    }
    const auto &reg = mica::workloads::BenchmarkRegistry::instance().all();
    std::vector<std::string> files;
    for (size_t k = 0; k < b.slices.size(); ++k) {
        std::string stem = reg[k].info.fullName();
        stem.replace(stem.find('/'), 1, "__");
        const std::string path = dir + "/" + stem + ".trace";
        mica::TraceFileWriter w(path, mica::kTraceFormatV2);
        w.append(b.recs.data() + b.slices[k].first, b.slices[k].second);
        w.close();
        files.push_back(path);
    }
    *traceDir = dir;
    return files;
}

/**
 * Serial single-job times against one parallel sweep, then the store
 * round trip of the results, grouped as the workload stores them.
 */
void
probePipeline(const RunContext &ctx, const std::string &dir,
              double *efficiency, OpTally &tally)
{
    const bool registry = ctx.spec->population == Population::Registry;
    std::vector<mica::workloads::BenchmarkEntry> traceEntries;
    std::vector<const mica::workloads::BenchmarkEntry *> entries;
    mica::MicaRunnerConfig rc;
    if (registry) {
        for (const auto &e :
             mica::workloads::BenchmarkRegistry::instance().all())
            entries.push_back(&e);
        rc.maxInsts = kRegistryBudget;
    } else {
        traceEntries =
            mica::workloads::traceBenchmarksFromFiles(ctx.traceFiles);
        for (const auto &e : traceEntries)
            entries.push_back(&e);
    }
    uint64_t serialNs = 0;
    for (const auto *e : entries) {
        const uint64_t t0 = monoNs();
        Span sp("pipeline.job_serial");
        mica::pipeline::collectProfiles({e}, rc, 1);
        serialNs += monoNs() - t0;
    }
    std::vector<mica::pipeline::StoredProfile> results;
    const uint64_t t0 = monoNs();
    {
        Span sp("pipeline.sweep_parallel");
        results = mica::pipeline::collectProfiles(entries, rc, kWorkers);
    }
    const uint64_t wallNs = monoNs() - t0;
    *efficiency = static_cast<double>(serialNs) /
        (static_cast<double>(kWorkers) * static_cast<double>(wallNs));

    mica::pipeline::StoreKey key;
    key.maxInsts = rc.maxInsts;
    key.traceDir = "probe";
    const size_t group = registry ? results.size() : kShardSize;
    std::vector<std::pair<std::string, size_t>> stores;
    for (size_t g = 0; g < results.size(); g += group) {
        const std::string sdir =
            dir + "/store-" + std::to_string(stores.size());
        mica::pipeline::ProfileStore st(sdir, key);
        st.open();
        const size_t n = std::min(group, results.size() - g);
        Span sp("pipeline.store_append");
        for (size_t i = 0; i < n; ++i)
            st.put(results[g + i]);
        stores.emplace_back(sdir, n);
    }
    for (const auto &[sdir, n] : stores) {
        mica::pipeline::ProfileStore st(sdir, key);
        bool opened = false;
        {
            Span sp("pipeline.store_load");
            opened = st.open();
        }
        tally.record(opened && st.size() == n);
    }
}

void
probeMethodology(const RunContext &ctx)
{
    const mica::Matrix m = methodologyMatrix(ctx);
    mica::pipeline::ThreadPool pool(kWorkers);
    mica::GaConfig ga;
    ga.seed = mica::Rng::childSeed(ctx.cfg.seed, 0x6a00);
    const uint64_t kmSeed = mica::Rng::childSeed(ctx.cfg.seed, 0x4b00);
    for (size_t rep = 0; rep < kProbeReps; ++rep) {
        const mica::WorkloadSpace ws(m, &pool);
        {
            Span sp("stats.distance_matrix");
            mica::DistanceMatrix d(ws.normalized(), &pool);
        }
        {
            Span sp("stats.pca");
            mica::pcaFit(ws.normalized());
        }
        mica::GaResult sel;
        {
            Span sp("methodology.ga_select");
            sel = mica::geneticSelect(ws, ga, &pool);
        }
        mica::Matrix reduced = ws.normalized().selectCols(sel.selected);
        reduced.rowNames = m.rowNames;
        {
            Span sp("methodology.cluster_bic");
            mica::clusterBenchmarks(reduced, kMaxK, kmSeed, 0.9, 0.25, &pool);
        }
        {
            Span sp("methodology.subset");
            mica::selectRepresentatives(reduced, kMaxK, kmSeed, 0.9, 0.25,
                                        &pool);
        }
    }
}

void
probeIndex(const RunContext &ctx)
{
    const auto &snap = *ctx.snap;
    const mica::Matrix m = snap.ds.micaMatrix();
    for (size_t rep = 0; rep < kProbeReps; ++rep) {
        Span sp("index.build");
        mica::index::FingerprintIndex::build(m);
    }
    const double r = kRadiusFrac * snap.maxPairDist;
    for (size_t id = 0; id < snap.idx.size(); ++id) {
        {
            Span sp("index.knn");
            snap.idx.knn(id, 5);
        }
        {
            Span sp("index.radius");
            snap.idx.radius(id, r);
        }
    }
    for (size_t rep = 0; rep < kProbeReps; ++rep) {
        Span sp("index.redundant");
        snap.idx.mostRedundant(5);
    }
}

/** Span names for the in-process service probe, by MixOp then stage. */
const char *const kServiceSpans[5][4] = {
    {"service.knn.parse", "service.knn.execute", "service.knn.serialize",
     "service.knn.execute_line"},
    {"service.radius.parse", "service.radius.execute",
     "service.radius.serialize", "service.radius.execute_line"},
    {"service.profile.parse", "service.profile.execute",
     "service.profile.serialize", "service.profile.execute_line"},
    {"service.ping.parse", "service.ping.execute", "service.ping.serialize",
     "service.ping.execute_line"},
    {"service.redundant.parse", "service.redundant.execute",
     "service.redundant.serialize", "service.redundant.execute_line"},
};
const char *const kServiceStages[4] = {"parse", "execute", "serialize",
                                       "execute_line"};

void
probeService(const RunContext &ctx, OpTally &tally)
{
    const auto &snap = *ctx.snap;
    std::vector<std::string> names;
    for (size_t i = 0; i < snap.idx.size(); ++i)
        names.push_back(snap.idx.nameOf(i));
    RequestMix mix(ctx.cfg.seed, kConnections, names,
                   kRadiusFrac * snap.maxPairDist);
    std::array<size_t, 5> done{};
    const auto want = [](size_t op) {
        return op == static_cast<size_t>(MixOp::Redundant)
            ? kRedundantSamples
            : kServiceSamples;
    };
    for (;;) {
        bool all = true;
        for (size_t op = 0; op < done.size(); ++op)
            all = all && done[op] >= want(op);
        if (all)
            break;
        const MixRequest r = mix.next();
        const size_t op = static_cast<size_t>(r.op);
        if (done[op] >= want(op))
            continue;
        ++done[op];
        mica::service::Request req;
        mica::service::ErrorCode code = mica::service::ErrorCode::Internal;
        std::string message;
        bool parsed = false;
        {
            Span sp(kServiceSpans[op][0]);
            parsed = mica::service::parseRequest(r.line, &req, &code,
                                                 &message);
        }
        mica::service::JsonValue resp;
        {
            Span sp(kServiceSpans[op][1]);
            resp = mica::service::executeRequest(snap, req, true);
        }
        std::string bytes;
        {
            Span sp(kServiceSpans[op][2]);
            bytes = mica::service::serializeResponse(resp);
        }
        std::string line;
        {
            Span sp(kServiceSpans[op][3]);
            line = mica::service::executeLine(snap, r.line, true);
        }
        tally.record(parsed && bytes == line &&
                     line.find("\"ok\":true") != std::string::npos);
    }
}

} // namespace

const std::vector<std::string> &
perLayerMetricNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n = {
            "isa.interp_records_per_s",
            "trace.v2_decode_records_per_s",
            "trace.open_validate_s",
            "trace.v2_encode_records_per_s",
            "mica.full_profile_records_per_s",
        };
        for (const char *f : kFamilies)
            n.push_back(std::string("mica.") + f + "_records_per_s");
        for (const char *f : kFamilies)
            n.push_back(std::string("mica.") + f + "_share");
        for (const char *m :
             {"uarch.hpc_records_per_s", "pipeline.parallel_efficiency",
              "pipeline.store_append_s", "pipeline.store_load_s",
              "workloads.corpus_init_s", "methodology.ga_select_s",
              "methodology.cluster_bic_s", "methodology.subset_s",
              "stats.distance_matrix_s", "stats.pca_s", "index.build_ms",
              "index.knn_us", "index.radius_us", "index.redundant_ms"})
            n.push_back(m);
        for (size_t op = 0; op < 5; ++op) {
            for (const char *stage : kServiceStages)
                n.push_back(std::string("service.") +
                            mixOpName(static_cast<MixOp>(op)) + "." + stage +
                            "_us");
        }
        n.push_back("service.transport_us");
        n.push_back("serve.knn_p99_us");
        n.push_back("service.snapshot_build_s");
        n.push_back("count.records_profiled");
        for (size_t op = 0; op < kNumMixOps; ++op)
            n.push_back(std::string("count.requests.") +
                        mixOpName(static_cast<MixOp>(op)));
        n.push_back("count.quarantined_traces");
        n.push_back("bench.tracing_overhead_frac");
        return n;
    }();
    return names;
}

std::vector<Metric>
layerMetrics(RunContext &ctx, double overheadFrac)
{
    if (!Tracer::enabled())
        throw std::runtime_error("layer probes need tracing on");
    const std::string dir = ctx.freshDir("probe");
    std::vector<Metric> out;
    const auto add = [&](std::string name, double v, const char *unit) {
        out.push_back({std::move(name), v, unit});
    };

    const RecordBuffer b = interpretBuffer();
    const uint64_t n = b.recs.size();
    probeColumnar(b, ctx.tally);
    probeAnalyzers(b, ctx.tally);

    std::string traceDir;
    fs::create_directories(dir + "/traces");
    const std::vector<std::string> files =
        populationTraces(ctx, b, dir + "/traces", &traceDir);
    for (const auto &f : files) {
        Span sp("trace.open_validate");
        mica::probeTraceFile(f);
    }
    {
        Span sp("workloads.corpus_init");
        mica::workloads::saveCorpus(
            mica::workloads::scanCorpus(traceDir, kShardSize));
    }
    double efficiency = 0.0;
    probePipeline(ctx, dir, &efficiency, ctx.tally);
    probeMethodology(ctx);
    probeIndex(ctx);
    probeService(ctx, ctx.tally);

    add("isa.interp_records_per_s", perSecond(n, "isa.interp"), "1/s");
    add("trace.v2_decode_records_per_s", perSecond(n, "trace.v2_decode"),
        "1/s");
    add("trace.open_validate_s", spanSeconds("trace.open_validate"), "s");
    add("trace.v2_encode_records_per_s", perSecond(n, "trace.v2_encode"),
        "1/s");
    add("mica.full_profile_records_per_s",
        perSecond(n, "mica.full_profile"), "1/s");
    double familyS = 0.0;
    for (const char *span : kFamilySpans)
        familyS += spanSeconds(span);
    for (size_t f = 0; f < kFamilies.size(); ++f) {
        add(std::string("mica.") + kFamilies[f] + "_records_per_s",
            perSecond(n, kFamilySpans[f]), "1/s");
    }
    for (size_t f = 0; f < kFamilies.size(); ++f) {
        add(std::string("mica.") + kFamilies[f] + "_share",
            spanSeconds(kFamilySpans[f]) / familyS, "ratio");
    }
    add("uarch.hpc_records_per_s", perSecond(n, "uarch.hpc"), "1/s");
    add("pipeline.parallel_efficiency", efficiency, "ratio");
    add("pipeline.store_append_s", spanSeconds("pipeline.store_append"),
        "s");
    add("pipeline.store_load_s", spanSeconds("pipeline.store_load"), "s");
    add("workloads.corpus_init_s",
        medianSpanUs("workloads.corpus_init") / 1e6, "s");
    add("methodology.ga_select_s",
        medianSpanUs("methodology.ga_select") / 1e6, "s");
    add("methodology.cluster_bic_s",
        medianSpanUs("methodology.cluster_bic") / 1e6, "s");
    add("methodology.subset_s", medianSpanUs("methodology.subset") / 1e6,
        "s");
    add("stats.distance_matrix_s",
        medianSpanUs("stats.distance_matrix") / 1e6, "s");
    add("stats.pca_s", medianSpanUs("stats.pca") / 1e6, "s");
    add("index.build_ms", medianSpanUs("index.build") / 1e3, "ms");
    add("index.knn_us", medianSpanUs("index.knn"), "us");
    add("index.radius_us", medianSpanUs("index.radius"), "us");
    add("index.redundant_ms", medianSpanUs("index.redundant") / 1e3, "ms");
    for (size_t op = 0; op < 5; ++op) {
        for (size_t s = 0; s < 4; ++s) {
            add(std::string("service.") +
                    mixOpName(static_cast<MixOp>(op)) + "." +
                    kServiceStages[s] + "_us",
                medianSpanUs(kServiceSpans[op][s]), "us");
        }
    }
    add("service.transport_us",
        ctx.serve.knnP50() - medianSpanUs("service.knn.execute_line"), "us");
    // The daemon's knn tail. It is not an end-to-end metric: a
    // hypervisor steal episode multiplies it 20-40x for whole runs.
    add("serve.knn_p99_us", ctx.serve.knnP99(), "us");
    add("service.snapshot_build_s", median(ctx.snapshotBuildS), "s");
    add("count.records_profiled", static_cast<double>(ctx.recordsPerPass),
        "count");
    for (size_t op = 0; op < kNumMixOps; ++op) {
        add(std::string("count.requests.") +
                mixOpName(static_cast<MixOp>(op)),
            static_cast<double>(ctx.serve.requests[op]), "count");
    }
    add("count.quarantined_traces", static_cast<double>(ctx.quarantined),
        "count");
    add("bench.tracing_overhead_frac", overheadFrac, "ratio");
    return out;
}

} // namespace perfbench
