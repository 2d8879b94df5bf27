/**
 * @file
 * The benchmark's own span recorder. Spans are opened by the benchmark
 * around each call it makes into a mica layer, kept in memory, and
 * written as Chrome trace-event JSON when the run ends. Recording is
 * off unless the run was started with --trace 1, in which case a span
 * costs two clock reads and one locked push.
 *
 * The per-layer metrics are sums and medians over every span of a
 * name, so they need every span the run opened. mica's own tracer
 * (obs/obs.hh, ObsSpan) cannot give that: its per-thread ring keeps
 * the last kTraceRingCap spans and overwrites older ones, and its
 * spans compile out when mica is built with MICA_OBS=0, which must not
 * change what the benchmark measures.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** One finished span. */
struct SpanRecord
{
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;    ///< 0 = root
    uint64_t startNs = 0;
    uint64_t durNs = 0;
    uint32_t tid = 0;
};

/** Process-wide span store. */
class Tracer
{
  public:
    static void setEnabled(bool on);
    static bool enabled();

    /** @return every span recorded so far, in completion order. */
    static std::vector<SpanRecord> spans();

    /** @return summed duration (ns) of the spans named @p name. */
    static uint64_t totalNs(const std::string &name);

    /** @return the durations (ns) of the spans named @p name. */
    static std::vector<uint64_t> durations(const std::string &name);

    /** Write all spans as Chrome trace-event JSON. @return success. */
    static bool writeJson(const std::string &path);

    static void record(SpanRecord r);
};

/**
 * RAII span around one call. Nested spans on the same thread record
 * their enclosing span as parent, so a layer's self time is its
 * duration minus that of its children.
 */
class Span
{
  public:
    /** @param name a string that outlives the span (a literal). */
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_ = nullptr;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t startNs_ = 0;
    bool live_ = false;
};

/** @return nanoseconds on the steady clock. */
uint64_t monoNs();

} // namespace perfbench
