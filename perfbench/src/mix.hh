/**
 * @file
 * The seeded daemon request mix: mostly knn (k=5), some radius,
 * profile and ping, and a rare redundant. Each closed-loop connection
 * draws its own deterministic sequence from the run seed.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/rng.hh"

namespace perfbench
{

/** The ops the mix draws, in reporting order. */
enum class MixOp : size_t
{
    Knn,
    Radius,
    Profile,
    Ping,
    Redundant,
    Reindex,    ///< sent on a cadence by connection 0, never drawn
};
constexpr size_t kNumMixOps = 6;

/** @return the wire name of @p op. */
const char *mixOpName(MixOp op);

/** Draw probabilities of the read ops (they sum to 1). */
constexpr double kKnnShare = 0.80;
constexpr double kRadiusShare = 0.08;
constexpr double kProfileShare = 0.06;
constexpr double kPingShare = 0.055;
constexpr double kRedundantShare = 0.005;

/** One generated request. */
struct MixRequest
{
    MixOp op = MixOp::Ping;
    std::string line;
};

/** Deterministic request source for one connection. */
class RequestMix
{
  public:
    /**
     * @param seed    run seed
     * @param conn    connection index (each gets its own stream)
     * @param benches benchmark names queries may target
     * @param radius  the radius op's distance bound
     */
    RequestMix(uint64_t seed, size_t conn, std::vector<std::string> benches,
               double radius);

    MixRequest next();

    /** @return the reindex request line. */
    static std::string reindexLine();

  private:
    mica::Rng rng_;
    std::vector<std::string> benches_;
    std::string radius_;
};

} // namespace perfbench
