/**
 * @file
 * Trace fill unit: watches the committed instruction stream (as
 * branch records plus the sequential runs between them) and builds
 * traces off the critical path, inserting them into the trace cache
 * and training the next trace predictor.
 */

#ifndef SFETCH_TCACHE_FILL_UNIT_HH
#define SFETCH_TCACHE_FILL_UNIT_HH

#include <functional>
#include <stdexcept>
#include <string>

#include "fetch/fetch_engine.hh"
#include "tcache/trace.hh"
#include "util/stats.hh"

namespace sfetch
{

/** Trace construction limits. */
struct FillUnitConfig
{
    std::uint32_t maxInsts = 16;
    std::uint8_t maxCondBranches = 3;
    /** Must not exceed TraceDescriptor::kMaxSegments. */
    std::size_t maxSegments = 8;
};

/** Builds traces from the retired branch stream. */
class TraceFillUnit
{
  public:
    using Sink = std::function<void(const TraceDescriptor &,
                                    bool mispredicted)>;

    TraceFillUnit(Addr start, const FillUnitConfig &cfg, Sink sink)
        : cfg_(cfg), sink_(std::move(sink)), fill_pc_(start)
    {
        // Runtime check, not an assert: the limit comes from user
        // configuration and overrunning the descriptor's inline
        // segment array would silently truncate traces.
        if (cfg_.maxSegments > TraceDescriptor::kMaxSegments) {
            throw std::invalid_argument(
                "FillUnitConfig.maxSegments " +
                std::to_string(cfg_.maxSegments) +
                " exceeds TraceDescriptor::kMaxSegments " +
                std::to_string(TraceDescriptor::kMaxSegments));
        }
        cur_.start = start;
    }

    /** Feed the next committed branch. */
    void onBranch(const CommittedBranch &cb);

    /** Note that a misprediction resolved (upgrade-policy hint). */
    void onMispredict() { pending_mispredict_ = true; }

    std::uint64_t tracesBuilt() const { return built_; }
    const Histogram &lengthHistogram() const { return lengths_; }

  private:
    void addRun(Addr from, std::uint32_t len_insts);
    void complete(Addr next);

    FillUnitConfig cfg_;
    Sink sink_;
    TraceDescriptor cur_;
    Addr fill_pc_ = kNoAddr; //!< next PC to be absorbed into cur_
    bool pending_mispredict_ = false;
    std::uint64_t built_ = 0;
    Histogram lengths_{64};
};

} // namespace sfetch

#endif // SFETCH_TCACHE_FILL_UNIT_HH
