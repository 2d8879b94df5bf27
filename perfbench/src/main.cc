/**
 * @file
 * micabench: the repository's end-to-end benchmark.
 *
 *   micabench --workload sweep_registry|replay_corpus
 *             --seed N --seconds S --trace 0|1
 *
 * --trace 0 runs the workload untraced and reports its end-to-end
 * metrics; --trace 1 runs the fixed-work stages untraced, then the
 * whole workload with benchmark spans on, then the per-layer probes,
 * and reports the per-layer metrics (plus the tracing overhead). The
 * last stdout line is the result object; the line before it is the
 * run's provenance. Working files live in .bench_run/ and are removed
 * at exit; result and span files are written to .bench_out/.
 */
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "layers.hh"
#include "report.hh"
#include "stages.hh"
#include "tracer.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "micabench: %s\nusage: micabench --workload NAME "
                 "--seed N --seconds S --trace 0|1\n",
                 why);
    return 2;
}

/** Run the workload's stages in order; the daemon stage is optional. */
void
runPipeline(RunContext &ctx, bool serve)
{
    const WorkloadSpec &w = *ctx.spec;
    const double s = ctx.cfg.seconds;
    runSetup(ctx);
    runProfile(ctx, s * w.profileShare);
    runMethodology(ctx, s * w.methodologyShare);
    if (serve)
        runServe(ctx, s * w.serveShare);
}

/** Seconds of the fixed-work stages, the basis of the tracing overhead. */
double
fixedWorkS(const RunContext &ctx)
{
    return quietMedian(ctx.profileRepS) + quietMedian(ctx.methodologyRepS);
}

RunContext
makeContext(const RunConfig &cfg, const WorkloadSpec *spec,
            const std::string &sub)
{
    RunContext ctx;
    ctx.cfg = cfg;
    ctx.cfg.workDir = cfg.workDir + "/" + sub;
    ctx.spec = spec;
    fs::create_directories(ctx.cfg.workDir);
    return ctx;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    std::string trace = "0", seed = "1", seconds = "10";
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string v;
        const size_t eq = a.find('=');
        if (eq != std::string::npos) {
            v = a.substr(eq + 1);
            a = a.substr(0, eq);
        } else if (i + 1 < argc) {
            v = argv[++i];
        } else {
            return usage(("missing value for " + a).c_str());
        }
        if (a == "--workload")
            cfg.workload = v;
        else if (a == "--seed")
            seed = v;
        else if (a == "--seconds")
            seconds = v;
        else if (a == "--trace")
            trace = v;
        else
            return usage(("unknown argument " + a).c_str());
    }
    const WorkloadSpec *spec = findWorkload(cfg.workload);
    if (!spec)
        return usage(("unknown workload '" + cfg.workload + "'").c_str());
    char *end = nullptr;
    cfg.seed = std::strtoull(seed.c_str(), &end, 10);
    if (seed.empty() || *end)
        return usage("--seed needs a non-negative integer");
    cfg.seconds = std::strtod(seconds.c_str(), &end);
    if (seconds.empty() || *end || !(cfg.seconds > 0) || cfg.seconds > 600)
        return usage("--seconds needs a number in (0, 600]");
    if (trace != "0" && trace != "1")
        return usage("--trace must be 0 or 1");
    cfg.trace = trace == "1";

    const std::string tag = cfg.workload + "-s" + seed + "-t" + trace;
    cfg.workDir = ".bench_run/" + tag + "-p" + std::to_string(getpid());
    const CpuTimes cpuStart = readCpuTimes();
    int rc = 0;
    try {
        fs::remove_all(cfg.workDir);
        fs::create_directories(".bench_out");
        OpTally tally;
        std::vector<Metric> metrics;
        std::string samples;
        if (!cfg.trace) {
            RunContext ctx = makeContext(cfg, spec, "run");
            runPipeline(ctx, true);
            metrics = endToEndMetrics(ctx);
            tally = ctx.tally;
            samples = samplesJson(ctx);
        } else {
            RunContext base = makeContext(cfg, spec, "base");
            runPipeline(base, false);
            Tracer::setEnabled(true);
            RunContext traced = makeContext(cfg, spec, "traced");
            runPipeline(traced, true);
            const double overhead = fixedWorkS(traced) / fixedWorkS(base) - 1;
            metrics = layerMetrics(traced, overhead);
            samples = samplesJson(traced);
            tally.recordMany(base.tally.attempted, base.tally.failed);
            tally.recordMany(traced.tally.attempted, traced.tally.failed);
            Tracer::setEnabled(false);
            const std::string spans = ".bench_out/spans-" + tag + ".json";
            if (!Tracer::writeJson(spans))
                std::fprintf(stderr, "micabench: cannot write %s\n",
                             spans.c_str());
        }
        // The contract: exactly the declared metrics, in table order.
        const auto &want =
            cfg.trace ? perLayerMetricNames() : endToEndMetricNames();
        bool match = metrics.size() == want.size();
        for (size_t i = 0; match && i < want.size(); ++i)
            match = metrics[i].name == want[i];
        if (!match)
            throw std::runtime_error("metrics do not match the table");
        const std::string prov = provenanceJson(cfg, cpuStart);
        const std::string result = resultJson(tally, metrics);
        std::ofstream(".bench_out/result-" + tag + ".json")
            << "{\"provenance\": " << prov << ", \"samples\": " << samples
            << ", \"result\": " << result << "}\n";
        std::printf("provenance %s\n%s\n", prov.c_str(), result.c_str());
        std::fflush(stdout);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "micabench: %s\n", e.what());
        rc = 1;
    }
    std::error_code ec;
    fs::remove_all(cfg.workDir, ec);
    return rc;
}
