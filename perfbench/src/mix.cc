#include "mix.hh"

#include <cstdio>

#include "service/json.hh"

namespace perfbench
{

const char *
mixOpName(MixOp op)
{
    switch (op) {
    case MixOp::Knn:
        return "knn";
    case MixOp::Radius:
        return "radius";
    case MixOp::Profile:
        return "profile";
    case MixOp::Ping:
        return "ping";
    case MixOp::Redundant:
        return "redundant";
    case MixOp::Reindex:
        return "reindex";
    }
    return "?";
}

RequestMix::RequestMix(uint64_t seed, size_t conn,
                       std::vector<std::string> benches, double radius)
    : rng_(mica::Rng::childSeed(seed, 0x5e0 + conn)),
      benches_(std::move(benches))
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", radius);
    radius_ = buf;
}

MixRequest
RequestMix::next()
{
    const double u = rng_.unit();
    const auto bench = [&] {
        return mica::service::JsonValue::str(
                   benches_[rng_.below(benches_.size())])
            .dump();
    };
    MixRequest r;
    if (u < kKnnShare) {
        r.op = MixOp::Knn;
        r.line = "{\"op\":\"knn\",\"bench\":" + bench() + ",\"k\":5}";
    } else if (u < kKnnShare + kRadiusShare) {
        r.op = MixOp::Radius;
        r.line = "{\"op\":\"radius\",\"bench\":" + bench() +
            ",\"r\":" + radius_ + "}";
    } else if (u < kKnnShare + kRadiusShare + kProfileShare) {
        r.op = MixOp::Profile;
        r.line = "{\"op\":\"profile\",\"bench\":" + bench() + "}";
    } else if (u < 1.0 - kRedundantShare) {
        r.op = MixOp::Ping;
        r.line = "{\"op\":\"ping\"}";
    } else {
        r.op = MixOp::Redundant;
        r.line = "{\"op\":\"redundant\",\"top\":5}";
    }
    return r;
}

std::string
RequestMix::reindexLine()
{
    return "{\"op\":\"reindex\"}";
}

} // namespace perfbench
