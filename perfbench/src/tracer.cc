#include "tracer.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>

namespace perfbench
{

namespace
{

std::atomic<bool> gEnabled{false};
std::atomic<uint64_t> gNextId{1};
std::mutex gMu;
std::vector<SpanRecord> gSpans;    // guarded by gMu
thread_local uint64_t tCurrent = 0;

uint32_t
threadTag()
{
    return static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        0x7fffffff);
}

/** Escape a span name for a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

uint64_t
monoNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
Tracer::setEnabled(bool on)
{
    gEnabled.store(on);
}

bool
Tracer::enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

void
Tracer::record(SpanRecord r)
{
    std::lock_guard<std::mutex> lk(gMu);
    gSpans.push_back(std::move(r));
}

std::vector<SpanRecord>
Tracer::spans()
{
    std::lock_guard<std::mutex> lk(gMu);
    return gSpans;
}

uint64_t
Tracer::totalNs(const std::string &name)
{
    uint64_t sum = 0;
    for (uint64_t d : durations(name))
        sum += d;
    return sum;
}

std::vector<uint64_t>
Tracer::durations(const std::string &name)
{
    std::lock_guard<std::mutex> lk(gMu);
    std::vector<uint64_t> out;
    for (const auto &s : gSpans) {
        if (s.name == name)
            out.push_back(s.durNs);
    }
    return out;
}

bool
Tracer::writeJson(const std::string &path)
{
    const std::vector<SpanRecord> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[", f);
    for (size_t i = 0; i < all.size(); ++i) {
        const auto &s = all[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                     i ? "," : "", jsonEscape(s.name).c_str(), s.tid,
                     static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.durNs) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

Span::Span(const char *name)
{
    if (!Tracer::enabled())
        return;
    live_ = true;
    name_ = name;
    id_ = gNextId.fetch_add(1, std::memory_order_relaxed);
    parent_ = tCurrent;
    tCurrent = id_;
    startNs_ = monoNs();
}

Span::~Span()
{
    if (!live_)
        return;
    const uint64_t end = monoNs();
    tCurrent = parent_;
    Tracer::record(
        {name_, id_, parent_, startNs_, end - startNs_,
         threadTag()});
}

} // namespace perfbench
