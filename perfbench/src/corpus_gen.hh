/**
 * @file
 * Seeded trace-corpus generation: the registry kernels recorded at
 * several seed-drawn short budgets, one v2 trace file per (kernel,
 * budget), each named so it maps to a distinct benchmark.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mica::pipeline
{
class ThreadPool;
} // namespace mica::pipeline

namespace mica::workloads
{
struct BenchmarkEntry;
} // namespace mica::workloads

namespace perfbench
{

/** Budgets per registry kernel; 122 kernels give 976 traces. */
constexpr size_t kSlotsPerKernel = 8;
/** Inclusive range the per-trace budgets are drawn from. */
constexpr uint64_t kMinBudget = 2000;
constexpr uint64_t kMaxBudget = 16000;

/** One planned corpus trace. */
struct CorpusItem
{
    size_t kernel = 0;      ///< registry index of the recorded kernel
    uint64_t budget = 0;    ///< records to record
    std::string file;       ///< file name inside the corpus directory
};

/**
 * Draw the corpus plan for @p seed: every registry kernel at
 * kSlotsPerKernel distinct budgets. The file stem
 * "<suite>__<program>-b<budget>.<input>" maps (see
 * workloads::traceBenchmarks) to benchmark
 * "<suite>/<program>-b<budget>.<input>", so every trace is its own
 * benchmark while keeping its suite.
 */
std::vector<CorpusItem> planCorpus(uint64_t seed);

/**
 * Interpret @p e for @p budget records and write them as a v2 trace.
 * @return records written
 */
uint64_t recordKernel(const mica::workloads::BenchmarkEntry &e,
                      uint64_t budget, const std::string &path);

/** Record every planned trace into @p dir across @p pool. */
void writeCorpus(const std::vector<CorpusItem> &plan,
                 const std::string &dir, mica::pipeline::ThreadPool *pool);

/** @return the whole file as bytes (empty when unreadable). */
std::string readFileBytes(const std::string &path);

} // namespace perfbench
