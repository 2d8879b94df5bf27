/**
 * @file
 * Per-layer attribution for the traced run. Each probe calls one
 * layer's public functions from outside, inside a benchmark span, over
 * the run's own population; the metrics are read back from the spans.
 */
#pragma once

#include <vector>

#include "stages.hh"

namespace perfbench
{

/** @return the per-layer metric names, in reporting order. */
const std::vector<std::string> &perLayerMetricNames();

/**
 * Run the layer probes over @p ctx's population (a finished traced
 * run) and @return every per-layer metric, plus
 * bench.tracing_overhead_frac = @p overheadFrac.
 */
std::vector<Metric> layerMetrics(RunContext &ctx, double overheadFrac);

} // namespace perfbench
