/**
 * @file
 * Result and provenance output. The last stdout line of a run is the
 * result object {"correct","attempted","failed","metrics"}; the line
 * before it is the provenance record that says where the numbers came
 * from, so results from different hosts are never silently compared.
 */
#pragma once

#include <string>
#include <vector>

#include "stages.hh"

namespace perfbench
{

/**
 * @return one-line JSON provenance: host (nproc, CPU model, and the
 * share of CPU time the hypervisor stole since @p start — a noisy
 * neighbour shows there), build (type, telemetry compiled in, commit
 * from MICA_BENCH_COMMIT), and run (workload, seed, seconds, trace,
 * workers, connections).
 */
std::string provenanceJson(const RunConfig &cfg, const CpuTimes &start);

/**
 * @return the repeated units behind the end-to-end figures, as JSON
 * [value, steal share] pairs per stage, for the result file.
 */
std::string samplesJson(const RunContext &ctx);

/**
 * @return the one-line result object.
 * @throws std::runtime_error on an invalid metric name or a
 *         non-finite value — a result the contract cannot carry
 */
std::string resultJson(const OpTally &tally,
                       const std::vector<Metric> &metrics);

} // namespace perfbench
