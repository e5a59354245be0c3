/**
 * @file
 * Quickstart: build the paper's Figure 1 example by hand (a loop
 * containing an if-then-else hammock), lay it out both ways, run the
 * stream fetch architecture on it, and print what the stream
 * predictor learned. Then run one suite benchmark end to end.
 *
 * Build & run:
 *   cmake -B build -S . && cmake --build build -j
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "isa/cfg_builder.hh"
#include "layout/layout_opt.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"
#include "util/table.hh"

using namespace sfetch;

namespace
{

/** The hammock-in-a-loop CFG of the paper's Figure 1. */
SyntheticWorkload
figure1Workload()
{
    CfgBuilder b("figure1");
    BlockId a = b.addBlock(6);  // A: loop header + condition
    BlockId c = b.addBlock(4);  // C: infrequent arm
    BlockId d = b.addBlock(8);  // B: frequent arm (laid after A)
    BlockId e = b.addBlock(5);  // D: join + loop latch
    BlockId x = b.addBlock(2);  // exit

    // A: if (rare) goto C; else fall into B.
    b.cond(a, c, d);
    // C jumps back into D (the join).
    b.jump(c, e);
    // B falls through into D.
    b.fallthrough(d, e);
    // D: loop back to A (taken) or exit.
    b.cond(e, a, x);
    // exit returns (restarting the trace).
    b.ret(x);

    SyntheticWorkload w;
    w.program = b.build(a);

    CondModel hammock;
    hammock.kind = CondModel::Kind::Biased;
    hammock.pPrimary = 0.10; // A->C is the infrequent path
    w.model.setCond(a, hammock);

    CondModel latch;
    latch.kind = CondModel::Kind::Loop;
    latch.meanTrips = 20.0;
    w.model.setCond(e, latch);
    return w;
}

int
run(int argc, char **argv)
{
    CliParser cli("quickstart",
                  "the paper's Figure 1 by hand, then one suite "
                  "benchmark end to end; takes no options");
    cli.parseOrExit(argc, argv);

    // ---- Part 1: Figure 1, by hand ----
    SyntheticWorkload fig1 = figure1Workload();
    std::printf("Figure 1 program: %zu blocks, %llu static insts\n",
                fig1.program.numBlocks(),
                static_cast<unsigned long long>(
                    fig1.program.staticInsts()));

    CodeImage base(fig1.program, baselineOrder(fig1.program));
    EdgeProfile prof = collectProfile(fig1.program, fig1.model,
                                      kTrainSeed, 20'000);
    CodeImage opt(fig1.program, optimizedOrder(fig1.program, prof));

    LayoutQuality qb = evaluateLayout(fig1.program, prof, base);
    LayoutQuality qo = evaluateLayout(fig1.program, prof, opt);
    std::printf("conditional taken fraction: base %.1f%%  "
                "optimized %.1f%%\n",
                100.0 * qb.takenFraction(),
                100.0 * qo.takenFraction());

    // Run the stream engine on the optimized Figure 1 image. The
    // engine comes from the registry: any `--list-archs` token and
    // parameter spec would work here.
    SimConfig streams("stream");
    MemoryConfig mc;
    MemoryHierarchy mem(mc);
    auto engine = streams.makeEngine(opt, &mem);
    ProcessorConfig pc;
    pc.width = 8;
    Processor proc(pc, engine.get(), opt, fig1.model, &mem,
                   kRefSeed);
    SimStats st = proc.run(200'000, 20'000);

    std::printf("stream engine on figure1(optimized): IPC %.2f, "
                "fetch IPC %.2f, mispredict rate %.2f%%\n",
                st.ipc(), st.fetchIpc(),
                100.0 * st.mispredictRate());
    std::printf("avg committed stream length: %.1f insts "
                "(%llu streams, %llu partial)\n\n",
                st.engine.get("stream.avg_commit_len"),
                static_cast<unsigned long long>(
                    st.engine.get("stream.commit_streams")),
                static_cast<unsigned long long>(
                    st.engine.get("stream.partial_streams")));

    // ---- Part 2: a suite benchmark through the harness ----
    // (Sweeps over many configs should use SweepDriver from
    // sim/driver.hh; runBenchmark is the one-off convenience path.)
    SimConfig cfg = SimConfig::fromSpec("stream");
    cfg.width = 8;
    cfg.optimizedLayout = true;
    cfg.insts = 500'000;
    cfg.warmupInsts = 100'000;

    SimStats gz = runBenchmark("gzip", cfg);
    std::printf("gzip / Streams / 8-wide / optimized: IPC %.2f, "
                "fetch IPC %.2f, mispredicts %.2f%%, "
                "avg stream %.1f insts\n",
                gz.ipc(), gz.fetchIpc(), 100.0 * gz.mispredictRate(),
                gz.engine.get("stream.avg_commit_len"));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("quickstart", [&] { return run(argc, argv); });
}
