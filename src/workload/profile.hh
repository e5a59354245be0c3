/**
 * @file
 * Edge profiling: the substitute for the paper's pixie/train-input
 * profile that drives the code layout optimizer.
 */

#ifndef SFETCH_WORKLOAD_PROFILE_HH
#define SFETCH_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/program.hh"
#include "workload/branch_model.hh"

namespace sfetch
{

/**
 * Dynamic CFG edge counts collected from a profiling run. Block and
 * edge counts are exact over the profiled window.
 */
class EdgeProfile
{
  public:
    explicit EdgeProfile(std::size_t num_blocks)
        : block_counts_(num_blocks, 0)
    {}

    /** Record @p n traversals of the edge @p from -> @p to. */
    void
    record(BlockId from, BlockId to, std::uint64_t n = 1)
    {
        block_counts_.at(from) += n;
        edge_counts_[key(from, to)] += n;
    }

    std::uint64_t
    blockCount(BlockId b) const
    {
        return block_counts_.at(b);
    }

    std::uint64_t
    edgeCount(BlockId from, BlockId to) const
    {
        auto it = edge_counts_.find(key(from, to));
        return it == edge_counts_.end() ? 0 : it->second;
    }

    /**
     * Most frequent successor of @p b, or kNoBlock if @p b never
     * executed. @p candidates lists the static successors to rank.
     */
    BlockId
    hottestSuccessor(BlockId b,
                     const std::vector<BlockId> &candidates) const
    {
        BlockId best = kNoBlock;
        std::uint64_t best_count = 0;
        for (BlockId c : candidates) {
            std::uint64_t n = edgeCount(b, c);
            if (n > best_count) {
                best_count = n;
                best = c;
            }
        }
        return best;
    }

    std::uint64_t totalRecords() const { return total_; }
    void noteRecord() { ++total_; }

  private:
    static std::uint64_t
    key(BlockId from, BlockId to)
    {
        return (std::uint64_t(from) << 32) | to;
    }

    std::vector<std::uint64_t> block_counts_;
    std::unordered_map<std::uint64_t, std::uint64_t> edge_counts_;
    std::uint64_t total_ = 0;
};

/**
 * Run @p num_records blocks of trace under the `train` seed and
 * collect edge counts.
 */
EdgeProfile collectProfile(const Program &prog,
                           const WorkloadModel &model,
                           std::uint64_t seed,
                           std::uint64_t num_records);

} // namespace sfetch

#endif // SFETCH_WORKLOAD_PROFILE_HH
