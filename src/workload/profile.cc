#include "workload/profile.hh"

#include <vector>

#include "workload/trace_gen.hh"

namespace sfetch
{

EdgeProfile
collectProfile(const Program &prog, const WorkloadModel &model,
               std::uint64_t seed, std::uint64_t num_records)
{
    EdgeProfile profile(prog.numBlocks());
    TraceGenerator gen(prog, model, seed);
    // Nearly every edge is a block's target or fallthrough: count
    // those in flat per-block arrays and fold them in once, so only
    // returns and indirect jumps reach the edge map per record.
    std::vector<std::uint64_t> to_target(prog.numBlocks(), 0);
    std::vector<std::uint64_t> to_fallthrough(prog.numBlocks(), 0);
    for (std::uint64_t i = 0; i < num_records; ++i) {
        const ControlRecord rec = gen.next();
        const BasicBlock &b = prog.block(rec.block);
        if (rec.next == b.target)
            ++to_target[rec.block];
        else if (rec.next == b.fallthrough)
            ++to_fallthrough[rec.block];
        else
            profile.record(rec.block, rec.next);
        profile.noteRecord();
    }
    for (BlockId id = 0; id < prog.numBlocks(); ++id) {
        const BasicBlock &b = prog.block(id);
        if (to_target[id])
            profile.record(id, b.target, to_target[id]);
        if (to_fallthrough[id])
            profile.record(id, b.fallthrough, to_fallthrough[id]);
    }
    return profile;
}

} // namespace sfetch
