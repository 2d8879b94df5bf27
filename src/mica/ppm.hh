/**
 * @file
 * Prediction-by-Partial-Matching branch predictability (Table II
 * characteristics 44-47), after Chen, Coffey & Mudge [14].
 *
 * PPM is a universal compression/prediction scheme; its misprediction
 * rate is a microarchitecture-independent measure of how predictable a
 * benchmark's branches are, because it upper-bounds what any finite-
 * context history predictor can achieve rather than modeling a specific
 * hardware table organization.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/trace_source.hh"
#include "util/flat_hash.hh"

namespace mica
{

/**
 * One PPM predictor instance.
 *
 * Four variants are defined by two orthogonal axes, mirroring the
 * two-level predictor taxonomy:
 *  - history: Global (one history register) vs. Per-address (one history
 *    register per static branch);
 *  - tables:  g (one pattern table shared by all branches) vs.
 *    s (separate per-branch pattern tables).
 *
 * Prediction walks contexts from the longest (maxOrder history bits)
 * down to order 0 and predicts with the first context whose evidence
 * counter is non-zero; all context orders are updated afterwards
 * (non-exclusive update). Unseen contexts fall through; a completely
 * cold branch predicts taken.
 *
 * Pattern tables are dense: an order-k context is its k low history
 * bits, so slot (1 << k) | (history & ((1 << k) - 1)) gives every
 * context of orders 0..maxOrder its own counter in one block of
 * 2 << maxOrder bytes, with no tags and no collisions. The shared
 * variants own one block; the per-branch variants own one block per
 * static branch, allocated the first time the branch is seen.
 */
class PpmPredictor
{
  public:
    enum class History { Global, PerAddress };
    enum class Tables { Shared, PerBranch };

    /** Deepest supported context: an 8 KiB block per table. */
    static constexpr unsigned kMaxOrder = 12;

    /** @throws std::invalid_argument when maxOrder > kMaxOrder. */
    PpmPredictor(History hist, Tables tables, unsigned maxOrder = 8)
        : hist_(hist), tables_(tables), maxOrder_(checkedOrder(maxOrder)),
          blockSize_(size_t{2} << maxOrder_)
    {
        if (tables_ == Tables::Shared)
            ctr_.assign(blockSize_, 0);
    }

    /**
     * Predict the branch at pc, then update with the actual outcome.
     * @return the prediction made before the update.
     *
     * Prediction and update are fused into one walk: each context
     * counter is read just before it is updated, so the walk sees
     * the same pre-update evidence a separate predict pass would.
     */
    bool
    predictAndUpdate(uint64_t pc, bool taken)
    {
        uint64_t *hist = &ghist_;
        size_t base = 0;
        if (hist_ == History::PerAddress || tables_ == Tables::PerBranch) {
            const uint32_t id = branchId(pc);
            if (hist_ == History::PerAddress)
                hist = &lhist_[id];
            if (tables_ == Tables::PerBranch)
                base = size_t{id} * blockSize_;
        }
        int8_t *block = ctr_.data() + base;

        const uint64_t h = *hist;
        bool prediction = true;     // cold default: predict taken
        bool decided = false;
        const int8_t delta = taken ? 1 : -1;
        const int8_t rail = taken ? kCtrMax : -kCtrMax;
        for (unsigned k = maxOrder_ + 1; k-- > 0;) {
            const size_t top = size_t{1} << k;
            int8_t &ctr = block[top | (h & (top - 1))];
            const int8_t pre = ctr;
            if (!decided && pre != 0) {
                prediction = pre > 0;
                decided = true;
            }
            if (pre != rail)
                ctr = static_cast<int8_t>(pre + delta);
        }

        *hist = (h << 1) | (taken ? 1 : 0);
        return prediction;
    }

  private:
    static constexpr int8_t kCtrMax = 4;

    static unsigned
    checkedOrder(unsigned maxOrder)
    {
        if (maxOrder > kMaxOrder)
            throw std::invalid_argument(
                "PPM max order " + std::to_string(maxOrder) +
                " exceeds the supported maximum of " +
                std::to_string(kMaxOrder));
        return maxOrder;
    }

    /** Dense id of the static branch at pc, allocating its state. */
    uint32_t
    branchId(uint64_t pc)
    {
        const auto [id, inserted] =
            ids_.tryEmplace(pc, static_cast<uint32_t>(ids_.size()));
        if (inserted) {
            if (hist_ == History::PerAddress)
                lhist_.push_back(0);
            if (tables_ == Tables::PerBranch)
                ctr_.resize(ctr_.size() + blockSize_, 0);
        }
        return *id;
    }

    History hist_;
    Tables tables_;
    unsigned maxOrder_;
    size_t blockSize_;              ///< counters per table: 2 << maxOrder
    std::vector<int8_t> ctr_;       ///< one block, or one per branch
    uint64_t ghist_ = 0;
    std::vector<uint64_t> lhist_;   ///< per-branch history, by id
    util::FlatHashMap<uint64_t, uint32_t, util::MulHash> ids_;
};

/**
 * Runs the four PPM variants of Table II (GAg, PAg, GAs, PAs) over the
 * conditional branches of a trace and reports their miss rates.
 */
class PpmBranchAnalyzer : public TraceAnalyzer
{
  public:
    const char *name() const override { return "ppm"; }

    static constexpr size_t kNumVariants = 4;

    /**
     * @throws std::invalid_argument when maxOrder exceeds
     *         PpmPredictor::kMaxOrder.
     */
    explicit PpmBranchAnalyzer(unsigned maxOrder = 8)
        : gag_(PpmPredictor::History::Global,
               PpmPredictor::Tables::Shared, maxOrder),
          pag_(PpmPredictor::History::PerAddress,
               PpmPredictor::Tables::Shared, maxOrder),
          gas_(PpmPredictor::History::Global,
               PpmPredictor::Tables::PerBranch, maxOrder),
          pas_(PpmPredictor::History::PerAddress,
               PpmPredictor::Tables::PerBranch, maxOrder)
    {}

    void accept(const InstRecord &rec) override { step(rec); }

    void
    acceptBatch(const InstRecord *recs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            step(recs[i]);
    }

    /** @return dynamic conditional branches observed. */
    uint64_t branches() const { return branches_; }

    double missRateGAg() const { return rate(0); }
    double missRatePAg() const { return rate(1); }
    double missRateGAs() const { return rate(2); }
    double missRatePAs() const { return rate(3); }

  private:
    void
    step(const InstRecord &rec)
    {
        if (!rec.isCondBranch())
            return;
        ++branches_;
        miss_[0] += gag_.predictAndUpdate(rec.pc, rec.taken) != rec.taken;
        miss_[1] += pag_.predictAndUpdate(rec.pc, rec.taken) != rec.taken;
        miss_[2] += gas_.predictAndUpdate(rec.pc, rec.taken) != rec.taken;
        miss_[3] += pas_.predictAndUpdate(rec.pc, rec.taken) != rec.taken;
    }

    double
    rate(size_t v) const
    {
        return branches_ ? static_cast<double>(miss_[v]) /
                           static_cast<double>(branches_) : 0.0;
    }

    PpmPredictor gag_, pag_, gas_, pas_;
    uint64_t branches_ = 0;
    uint64_t miss_[kNumVariants] = {};
};

} // namespace mica
