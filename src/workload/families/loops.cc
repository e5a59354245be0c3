/**
 * @file
 * The `loops` workload family: numeric-kernel-shaped code built from
 * perfect loop nests. Each kernel function is a nest of `depth`
 * bottom-tested loops; the innermost body is a short straight-line
 * chain, optionally guarded by a strongly biased hammock (a bounds or
 * convergence test). Trip counts are deterministic, so every
 * history-capable predictor — at branch or stream granularity — can
 * learn the iteration structure; the interesting contrast is how much
 * of the resulting long streams each fetch engine exploits.
 */

#include "workload/families/common.hh"

namespace sfetch
{
namespace
{

struct Nest
{
    BlockId entry;
    BlockId last; //!< block whose fallthrough the caller wires
};

/** Build one loop nest, outermost level first. */
Nest
buildNest(family::FamilyBuilder &b, Pcg32 &rng, unsigned depth,
          std::int64_t trips, std::int64_t body_blocks,
          std::int64_t block_insts, std::int64_t hammock_pct)
{
    if (depth == 0) {
        auto [entry, last] =
            b.chain(static_cast<unsigned>(body_blocks),
                    static_cast<std::uint32_t>(block_insts));
        if (rng.nextBool(double(hammock_pct) / 100.0)) {
            // Guarded tail: `if (rare) fixup;` — the skip edge is
            // the hot one, as in bounds/underflow checks.
            BlockId cond = b.hammock(
                last, static_cast<std::uint32_t>(block_insts));
            b.biased(cond, 0.96);
        }
        return Nest{entry, last};
    }
    Nest inner = buildNest(b, rng, depth - 1, trips, body_blocks,
                           block_insts, hammock_pct);
    // Outer levels run a fraction of the innermost trip count; the
    // innermost loop carries the iteration weight, like a blocked
    // matrix kernel.
    double level_trips =
        depth == 1 ? double(trips)
                   : (trips / 4 < 2 ? 2.0 : double(trips / 4));
    BlockId latch = b.loop(inner.entry, inner.last, 3, level_trips);
    return Nest{inner.entry, latch};
}

SyntheticWorkload
buildLoops(const ParamSet &ps)
{
    std::uint64_t seed =
        static_cast<std::uint64_t>(ps.getInt("seed"));
    std::int64_t kernels = ps.getInt("kernels");
    unsigned depth = static_cast<unsigned>(ps.getInt("depth"));
    std::int64_t trips = ps.getInt("trips");

    family::FamilyBuilder b(mix64(seed ^ 0x100b5ULL));
    b.fpFrac = 0.18; // numeric kernels are FP-heavy
    b.loadFrac = 0.28;
    Pcg32 rng(mix64(seed), 0x100b5ULL);

    // Kernel functions: nest + return.
    std::vector<BlockId> kernel_entries;
    for (std::int64_t k = 0; k < kernels; ++k) {
        Nest nest = buildNest(b, rng, depth, trips,
                              ps.getInt("body_blocks"),
                              ps.getInt("block_insts"),
                              ps.getInt("hammock_pct"));
        BlockId ret = b.block(2, BranchType::Return);
        b.at(nest.last).fallthrough = ret;
        kernel_entries.push_back(nest.entry);
    }

    // Main: call every kernel, loop.
    BlockId first_call = b.mainLoop(
        kernel_entries, 4, double(ps.getInt("outer_trips")), 0.1);

    DataModel d;
    d.workingSetBytes =
        static_cast<Addr>(ps.getInt("ws_kb")) << 10;
    d.streamFraction = 0.75; // kernels stream through arrays
    d.hotFraction = 0.15;
    d.seed = seed;
    b.setData(d);

    return b.finish(formatSpec("loops", ps), first_call);
}

} // namespace

void
detail::registerLoopsFamily(WorkloadRegistry &reg)
{
    WorkloadDescriptor d;
    d.token = "loops";
    d.displayName = "Loop-nest kernels";
    d.summary =
        "numeric-kernel code: perfect loop nests with deterministic "
        "trip counts and a tiny branch footprint";
    d.aliases = {"loop_nest"};
    d.params
        .intParam("seed", 1, "workload generation seed", 0, INT64_MAX)
        .intParam("kernels", 4, "independent loop-nest functions", 1)
        // buildNest recurses once per level.
        .intParam("depth", 3, "loop nesting depth per kernel", 1, 64)
        .intParam("trips", 16, "innermost mean trip count", 2)
        .intParam("body_blocks", 2,
                  "straight-line blocks in the innermost body", 1)
        .intParam("block_insts", 6, "instructions per body block", 1)
        .intParam("hammock_pct", 30,
                  "innermost bodies guarded by a biased hammock, %", 0,
                  100)
        .intParam("outer_trips", 200,
                  "main driver loop trip count", 2)
        .intParam("ws_kb", 256, "data working set, KiB", 1,
                  family::kMaxWsKb);
    d.factory = buildLoops;
    reg.add(std::move(d));
}

} // namespace sfetch
