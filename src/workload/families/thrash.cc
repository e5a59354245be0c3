/**
 * @file
 * The `thrash` workload family: a large-footprint instruction-cache
 * stress case. `funcs` straight-line functions are visited
 * round-robin from the main loop, so with the default footprint
 * (well past the 64 KiB L1I of Table 2) every visit finds its lines
 * evicted — the LRU worst case. Control flow is trivially
 * predictable on purpose: what separates the fetch engines here is
 * purely how they tolerate and prefetch around instruction misses,
 * isolating the i-cache axis the way `loops` isolates streams and
 * `server` isolates calls.
 */

#include "workload/families/common.hh"

namespace sfetch
{
namespace
{

SyntheticWorkload
buildThrash(const ParamSet &ps)
{
    std::uint64_t seed =
        static_cast<std::uint64_t>(ps.getInt("seed"));
    std::int64_t funcs = ps.getInt("funcs");
    auto blocks_per_func =
        static_cast<unsigned>(ps.getInt("blocks_per_func"));
    auto insts =
        static_cast<std::uint32_t>(ps.getInt("block_insts"));

    family::FamilyBuilder b(mix64(seed ^ 0x7a54ULL));

    std::vector<BlockId> func_entries;
    for (std::int64_t f = 0; f < funcs; ++f) {
        auto [entry, last] = b.chain(blocks_per_func, insts);
        BlockId ret = b.block(2, BranchType::Return);
        b.at(last).fallthrough = ret;
        func_entries.push_back(entry);
    }

    // Main: call every function in order, then loop. The call blocks
    // themselves are a footprint-sized straight run.
    BlockId first_call =
        b.mainLoop(func_entries, 3, double(ps.getInt("outer_trips")));

    DataModel d;
    d.workingSetBytes =
        static_cast<Addr>(ps.getInt("ws_kb")) << 10;
    d.streamFraction = 0.6;
    d.seed = seed;
    b.setData(d);

    return b.finish(formatSpec("thrash", ps), first_call);
}

} // namespace

void
detail::registerThrashFamily(WorkloadRegistry &reg)
{
    WorkloadDescriptor d;
    d.token = "thrash";
    d.displayName = "I-cache thrasher";
    d.summary =
        "round-robin walk over a code footprint far past the L1I: "
        "perfectly predictable branches, pathological misses";
    d.aliases = {"icache"};
    d.params
        .intParam("seed", 1, "workload generation seed", 0, INT64_MAX)
        .intParam("funcs", 288,
                  "straight-line functions visited round-robin", 1)
        .intParam("blocks_per_func", 12,
                  "fallthrough blocks per function", 1)
        .intParam("block_insts", 10, "instructions per block", 1)
        .intParam("outer_trips", 100,
                  "main driver loop trip count", 2)
        .intParam("ws_kb", 512, "data working set, KiB", 1,
                  family::kMaxWsKb);
    d.factory = buildThrash;
    reg.add(std::move(d));
}

} // namespace sfetch
