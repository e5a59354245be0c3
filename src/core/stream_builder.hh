/**
 * @file
 * Commit-side stream reconstruction. Watches the retired branch
 * stream and emits completed StreamDescriptors — including *partial
 * streams*, which start at a misprediction-redirect target rather
 * than at the target of a taken branch (Section 1 of the paper), so
 * the stream semantics survive mispredictions without rollback.
 */

#ifndef SFETCH_CORE_STREAM_BUILDER_HH
#define SFETCH_CORE_STREAM_BUILDER_HH

#include <functional>

#include "core/stream.hh"
#include "fetch/fetch_engine.hh"
#include "util/stats.hh"

namespace sfetch
{

/**
 * Rebuilds streams from committed branches. Streams longer than the
 * configured cap are split into chained pseudo-streams whose
 * terminator type is None and whose next address is simply the
 * sequential continuation, so the fetch side remains seamless.
 */
class StreamBuilder
{
  public:
    using Sink = std::function<void(const StreamDescriptor &,
                                    bool mispredicted)>;

    /**
     * @param start Address the program starts at.
     * @param max_insts Stream length cap (predictor entry width).
     * @param sink Called for every completed stream.
     */
    StreamBuilder(Addr start, std::uint32_t max_insts, Sink sink)
        : cur_start_(start), max_insts_(max_insts),
          sink_(std::move(sink))
    {}

    /** Feed the next committed branch. */
    void
    onBranch(const CommittedBranch &cb)
    {
        // Split over-length prefixes first so lenInsts always fits.
        while (cb.pc + kInstBytes - cur_start_ >
               instsToBytes(max_insts_)) {
            StreamDescriptor s;
            s.start = cur_start_;
            s.lenInsts = max_insts_;
            s.endType = BranchType::None;
            s.next = cur_start_ + instsToBytes(max_insts_);
            emit(s);
            cur_start_ = s.next;
        }

        if (!cb.taken)
            return; // stream continues through a not-taken branch

        StreamDescriptor s;
        s.start = cur_start_;
        s.lenInsts = static_cast<std::uint32_t>(
            (cb.pc + kInstBytes - cur_start_) / kInstBytes);
        s.endType = cb.type;
        s.next = cb.target;
        emit(s);

        // Partial stream: if a redirect restarted fetch mid-stream,
        // also train the run from the redirect target to this taken
        // branch, so the predictor can hit there in the future.
        if (partial_start_ != kNoAddr && partial_start_ > s.start &&
            partial_start_ < cb.pc) {
            StreamDescriptor p;
            p.start = partial_start_;
            p.lenInsts = static_cast<std::uint32_t>(
                (cb.pc + kInstBytes - partial_start_) / kInstBytes);
            p.endType = cb.type;
            p.next = cb.target;
            if (p.lenInsts <= max_insts_) {
                ++partials_;
                emit(p);
            }
        }
        partial_start_ = kNoAddr;

        cur_start_ = cb.target;
    }

    /**
     * A misprediction redirected fetch to @p target; if commit later
     * flows through it mid-stream, a partial stream is trained.
     */
    void
    onRedirect(Addr target)
    {
        partial_start_ = target;
    }

    /**
     * A misprediction resolved: the next stream the builder emits is
     * the one the front end mispredicted, and commit restarts mid-
     * stream at @p target when the wrong prediction was a direction
     * (partial stream semantics are preserved because cur_start_
     * simply keeps accumulating to the next taken branch).
     */
    void
    onMispredict()
    {
        pending_mispredict_ = true;
    }

    /** Start of the stream currently being built. */
    Addr currentStart() const { return cur_start_; }

    std::uint64_t streamsEmitted() const { return emitted_; }
    std::uint64_t partialStreams() const { return partials_; }
    const Histogram &lengthHistogram() const { return lengths_; }

  private:
    void
    emit(const StreamDescriptor &s)
    {
        ++emitted_;
        lengths_.sample(s.lenInsts);
        sink_(s, pending_mispredict_);
        pending_mispredict_ = false;
    }

    Addr cur_start_;
    Addr partial_start_ = kNoAddr;
    std::uint32_t max_insts_;
    Sink sink_;
    bool pending_mispredict_ = false;
    std::uint64_t emitted_ = 0;
    std::uint64_t partials_ = 0;
    Histogram lengths_{256};
};

} // namespace sfetch

#endif // SFETCH_CORE_STREAM_BUILDER_HH
