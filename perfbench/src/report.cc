#include "report.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "obs/obs.hh"
#include "service/json.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace

std::string
provenanceJson(const RunConfig &cfg, const CpuTimes &start)
{
    using mica::service::JsonValue;
    const char *commit = std::getenv("MICA_BENCH_COMMIT");
    JsonValue host = JsonValue::object();
    host.set("nproc", JsonValue::number(static_cast<uint64_t>(
                          std::thread::hardware_concurrency())));
    host.set("cpu_model", JsonValue::str(cpuModel()));
    host.set("steal_frac",
             JsonValue::number(stealShare(start, readCpuTimes())));
    JsonValue build = JsonValue::object();
    build.set("type", JsonValue::str(PERFBENCH_BUILD_TYPE));
    build.set("mica_obs", JsonValue::boolean(MICA_OBS != 0));
    build.set("commit",
              JsonValue::str(commit && *commit ? commit : "unknown"));
    JsonValue run = JsonValue::object();
    run.set("workload", JsonValue::str(cfg.workload));
    run.set("seed", JsonValue::number(cfg.seed));
    run.set("seconds", JsonValue::number(cfg.seconds));
    run.set("trace", JsonValue::boolean(cfg.trace));
    run.set("workers", JsonValue::number(static_cast<uint64_t>(kWorkers)));
    run.set("connections",
            JsonValue::number(static_cast<uint64_t>(kConnections)));
    JsonValue doc = JsonValue::object();
    doc.set("host", std::move(host));
    doc.set("build", std::move(build));
    doc.set("run", std::move(run));
    return doc.dump();
}

std::string
samplesJson(const RunContext &ctx)
{
    using mica::service::JsonValue;
    const auto list = [](const std::vector<Sample> &v) {
        JsonValue arr = JsonValue::array();
        for (const auto &s : v) {
            JsonValue pair = JsonValue::array();
            pair.push(JsonValue::number(s.value));
            pair.push(JsonValue::number(s.steal));
            arr.push(std::move(pair));
        }
        return arr;
    };
    const ServeSamples &sv = ctx.serve;
    std::vector<Sample> knn;
    std::vector<Sample> done(sv.windowSteal.size());
    for (size_t w = 0; w < done.size(); ++w)
        done[w].steal = sv.windowSteal[w];
    for (const auto &w : sv.connWindows) {
        if (w.window >= sv.windowSteal.size())
            continue;
        knn.push_back({w.p50[static_cast<size_t>(MixOp::Knn)],
                       sv.windowSteal[w.window]});
        for (size_t n : w.n)
            done[w.window].value += static_cast<double>(n);
    }
    JsonValue doc = JsonValue::object();
    doc.set("setup_s", list(ctx.setupS));
    doc.set("profile_s", list(ctx.profileRepS));
    doc.set("methodology_s", list(ctx.methodologyRepS));
    doc.set("serve_window_requests", list(done));
    doc.set("serve_knn_p50_us", list(knn));
    return doc.dump();
}

std::string
resultJson(const OpTally &tally, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += tally.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (!metricNameValid(m.name))
            throw std::runtime_error("invalid metric name: " + m.name);
        if (!std::isfinite(m.value))
            throw std::runtime_error("non-finite value for " + m.name);
        char num[40];
        std::snprintf(num, sizeof(num), "%.17g", m.value);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
            ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
