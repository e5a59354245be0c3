/**
 * @file
 * The `phased` workload family: a program whose branch behaviour
 * switches mid-run. Main cycles through `phases` phase-driver
 * functions; each driver spins a long inner loop (`phase_len` trips)
 * whose hammocks have a per-phase character — strongly biased,
 * history-correlated, or noisy — and every phase also calls one
 * *shared* kernel whose branches use the Phased model, so the same
 * static branches flip their behaviour as phases pass. Predictors
 * (and stream/trace construction) that train in one phase pay a
 * re-learning cost at every boundary, the scenario where
 * coarse-grained fetch units historically degrade.
 */

#include "workload/families/common.hh"

namespace sfetch
{
namespace
{

SyntheticWorkload
buildPhased(const ParamSet &ps)
{
    std::uint64_t seed =
        static_cast<std::uint64_t>(ps.getInt("seed"));
    std::int64_t phases = ps.getInt("phases");
    double phase_len = double(ps.getInt("phase_len"));
    auto insts =
        static_cast<std::uint32_t>(ps.getInt("block_insts"));
    double noise = double(ps.getInt("noise_pml")) / 1000.0;

    family::FamilyBuilder b(mix64(seed ^ 0xfa5edULL));

    // Shared kernel: its hammocks are Phased with runs on the order
    // of one phase's worth of activations, so their bias flips
    // between phases.
    BlockId shared_entry;
    {
        auto [entry, last] = b.chain(2, insts);
        shared_entry = entry;
        BlockId chain_last = last;
        for (int i = 0; i < 3; ++i)
            b.phased(b.hammock(chain_last, insts), 0.5,
                     phase_len * 2.0);
        BlockId ret = b.block(2, BranchType::Return);
        b.at(chain_last).fallthrough = ret;
    }

    // Phase drivers: inner loop over (call shared kernel + two
    // hammocks with the phase's own branch character).
    std::vector<BlockId> driver_entries;
    for (std::int64_t p = 0; p < phases; ++p) {
        BlockId call = b.block(insts, BranchType::Call);
        b.at(call).target = shared_entry;
        BlockId chain_last = call;
        for (int i = 0; i < 2; ++i) {
            BlockId cond = b.hammock(chain_last, insts);
            switch (p % 3) {
              case 0: // compute phase: near-deterministic
                b.biased(cond, 0.98);
                break;
              case 1: // pointer-chase phase: history-correlated
                b.correlated(cond, 0.7, 12, noise);
                break;
              default: // data-dependent phase: noisy
                b.biased(cond, 0.62);
                break;
            }
        }
        BlockId latch = b.loop(call, chain_last, 3, phase_len, 0.1);
        BlockId ret = b.block(2, BranchType::Return);
        b.at(latch).fallthrough = ret;
        driver_entries.push_back(call);
    }

    // Main: run the phases in order, forever.
    BlockId first_call =
        b.mainLoop(driver_entries, 3, double(ps.getInt("outer_trips")));

    DataModel d;
    d.workingSetBytes =
        static_cast<Addr>(ps.getInt("ws_kb")) << 10;
    d.seed = seed;
    b.setData(d);

    return b.finish(formatSpec("phased", ps), first_call);
}

} // namespace

void
detail::registerPhasedFamily(WorkloadRegistry &reg)
{
    WorkloadDescriptor d;
    d.token = "phased";
    d.displayName = "Multi-phase behaviour";
    d.summary =
        "phase drivers with distinct branch character plus a shared "
        "kernel whose branches flip bias between phases";
    d.aliases = {"multiphase"};
    d.params
        .intParam("seed", 1, "workload generation seed", 0, INT64_MAX)
        .intParam("phases", 3, "phase-driver functions", 1)
        .intParam("phase_len", 400,
                  "inner-loop trips per phase activation", 2)
        .intParam("block_insts", 5, "instructions per block", 1)
        .intParam("noise_pml", 30,
                  "correlated-branch noise floor, per-mille", 0, 1000)
        .intParam("outer_trips", 150,
                  "main driver loop trip count", 2)
        .intParam("ws_kb", 1024, "data working set, KiB", 1,
                  family::kMaxWsKb);
    d.factory = buildPhased;
    reg.add(std::move(d));
}

} // namespace sfetch
