/**
 * @file
 * The `server` workload family: request-dispatch code shaped like an
 * RPC server or interpreter core. Main is a dispatch loop whose
 * indirect jump selects one of `handlers` handler routines
 * (Zipf-weighted, history-correlated the way real request mixes
 * are); each handler makes several calls into a shared pool of small
 * helper functions arranged in `depth` call levels, so the dynamic
 * stream is dominated by call/return edges between short blocks —
 * the return-address-stack and target-prediction stress case, at the
 * opposite pole from `loops`.
 */

#include "workload/families/common.hh"

namespace sfetch
{
namespace
{

/** A small helper function: entry chain + optional hammock + ret. */
BlockId
buildHelper(family::FamilyBuilder &b, Pcg32 &rng,
            std::int64_t block_insts, double noise,
            BlockId callee /* kNoBlock for leaf helpers */)
{
    auto insts = static_cast<std::uint32_t>(block_insts);
    auto [entry, last] = b.chain(1 + rng.nextBounded(2), insts);

    if (callee != kNoBlock) {
        BlockId c = b.block(insts, BranchType::Call);
        b.at(c).target = callee;
        b.at(last).fallthrough = c;
        last = c;
    }
    if (rng.nextBool(0.6)) {
        // Data-kind test: correlated with the recent dispatch cases,
        // visible to path-based predictors only.
        BlockId cond = b.hammock(last, insts);
        b.correlated(cond, 0.8, 10, noise, /*on_cases=*/true);
    }
    BlockId ret = b.block(2, BranchType::Return);
    b.at(last).fallthrough = ret;
    return entry;
}

SyntheticWorkload
buildServer(const ParamSet &ps)
{
    std::uint64_t seed =
        static_cast<std::uint64_t>(ps.getInt("seed"));
    std::int64_t handlers = ps.getInt("handlers");
    std::int64_t helpers = ps.getInt("helpers");
    auto depth = static_cast<unsigned>(ps.getInt("depth"));
    std::int64_t insts = ps.getInt("block_insts");
    double noise = double(ps.getInt("noise_pml")) / 1000.0;

    family::FamilyBuilder b(mix64(seed ^ 0x5e47e4ULL));
    b.loadFrac = 0.26;
    b.storeFrac = 0.14;
    Pcg32 rng(mix64(seed), 0x5e47e4ULL);

    // Helper pool, deepest call level first so callees exist when a
    // caller is built. Level L helpers call one level-L+1 helper.
    std::vector<std::vector<BlockId>> level_entries(depth);
    for (unsigned lvl = depth; lvl-- > 0;) {
        std::int64_t n = helpers / std::int64_t(depth);
        if (n < 1)
            n = 1;
        for (std::int64_t i = 0; i < n; ++i) {
            BlockId callee = kNoBlock;
            if (lvl + 1 < depth) {
                const auto &deeper = level_entries[lvl + 1];
                callee = deeper[rng.nextBounded(
                    static_cast<std::uint32_t>(deeper.size()))];
            }
            level_entries[lvl].push_back(
                buildHelper(b, rng, insts, noise, callee));
        }
    }

    // Handlers: 2-4 calls into level-0 helpers, then return.
    std::vector<BlockId> handler_entries;
    for (std::int64_t h = 0; h < handlers; ++h) {
        unsigned calls = 2 + rng.nextBounded(3);
        BlockId entry = kNoBlock;
        BlockId prev = kNoBlock;
        for (unsigned c = 0; c < calls; ++c) {
            BlockId cb = b.block(static_cast<std::uint32_t>(insts),
                                 BranchType::Call);
            const auto &pool = level_entries[0];
            // Zipf-skewed helper selection: a few helpers dominate.
            double u = rng.nextDouble();
            auto idx = static_cast<std::size_t>(
                double(pool.size()) * u * u);
            if (idx >= pool.size())
                idx = pool.size() - 1;
            b.at(cb).target = pool[idx];
            if (entry == kNoBlock)
                entry = cb;
            else
                b.at(prev).fallthrough = cb;
            prev = cb;
        }
        BlockId ret = b.block(2, BranchType::Return);
        b.at(prev).fallthrough = ret;
        handler_entries.push_back(entry);
    }

    // Main: dispatch -> case (call handler) -> latch -> dispatch.
    BlockId dispatch = b.block(static_cast<std::uint32_t>(insts),
                               BranchType::IndirectJump);
    BlockId latch = b.block(3, BranchType::CondDirect);
    std::vector<BlockId> cases;
    for (BlockId hentry : handler_entries) {
        BlockId c = b.block(3, BranchType::Call);
        b.at(c).target = hentry;
        b.at(c).fallthrough = latch;
        cases.push_back(c);
    }
    b.indirect(dispatch, std::move(cases),
               double(ps.getInt("dispatch_corr_pct")) / 100.0);
    b.at(latch).target = dispatch; // back edge: next request
    CondModel lm;
    lm.kind = CondModel::Kind::Loop;
    lm.meanTrips = double(ps.getInt("requests"));
    lm.tripJitter = 0.2;
    BlockId ret = b.block(2, BranchType::Return);
    b.at(latch).fallthrough = ret;
    b.cond(latch, lm);

    DataModel d;
    d.workingSetBytes =
        static_cast<Addr>(ps.getInt("ws_kb")) << 10;
    d.streamFraction = 0.3;
    d.hotFraction = 0.4; // stack-heavy
    d.seed = seed;
    b.setData(d);

    return b.finish(formatSpec("server", ps), dispatch);
}

} // namespace

void
detail::registerServerFamily(WorkloadRegistry &reg)
{
    WorkloadDescriptor d;
    d.token = "server";
    d.displayName = "Call-heavy server code";
    d.summary =
        "request-dispatch loop: an indirect jump into handlers that "
        "fan out over deep chains of tiny helper functions";
    d.aliases = {"calls"};
    d.params
        .intParam("seed", 1, "workload generation seed", 0, INT64_MAX)
        .intParam("handlers", 12,
                  "handler routines behind the dispatch jump", 1)
        .intParam("helpers", 24, "shared helper-function pool", 1)
        .intParam("depth", 4, "helper call-chain depth", 1)
        .intParam("block_insts", 4, "instructions per block", 1)
        .intParam("requests", 300,
                  "dispatch-loop trips per outer activation", 2)
        .intParam("dispatch_corr_pct", 70,
                  "history-correlated dispatch selections, %", 0, 100)
        .intParam("noise_pml", 40,
                  "helper-branch noise floor, per-mille", 0, 1000)
        .intParam("ws_kb", 2048, "data working set, KiB", 1,
                  family::kMaxWsKb);
    d.factory = buildServer;
    reg.add(std::move(d));
}

} // namespace sfetch
