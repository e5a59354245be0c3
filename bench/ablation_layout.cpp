/**
 * @file
 * Layout algorithm ablation: how much of the stream architecture's
 * benefit comes from *which* layout optimizer is used. Compares the
 * baseline (compiler order), the Pettis-Hansen-style chain merge the
 * harness uses by default, and a Software-Trace-Cache-style
 * seed-and-grow layout, all feeding the stream fetch engine.
 *
 * Usage: ablation_layout [--insts N] [--bench name] [--jobs N]
 */

#include <cstdio>
#include <vector>

#include "layout/layout_opt.hh"
#include "pipeline/processor.hh"
#include "sim/cli.hh"
#include "sim/driver.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace sfetch;

namespace
{

constexpr int kNumLayouts = 3;
const char *const kLayoutNames[kNumLayouts] = {
    "baseline (compiler order)",
    "Pettis-Hansen chains",
    "STC seed-and-grow",
};

struct Result
{
    double ipc = 0, mispred = 0, stream_len = 0, taken = 0;
};

Result
runStreams(const PlacedWorkload &work, const std::vector<BlockId> &ord,
           InstCount insts)
{
    CodeImage img(work.program(), ord);
    SimConfig cfg("stream");
    cfg.width = 8;
    MemoryConfig mc;
    mc.l1i.lineBytes = cfg.lineBytes();
    MemoryHierarchy mem(mc);
    auto engine = cfg.makeEngine(img, &mem);
    ProcessorConfig pc;
    pc.width = cfg.width;
    Processor proc(pc, engine.get(), img, work.model(), &mem,
                   kRefSeed);
    SimStats st = proc.run(insts, insts / 5);

    Result r;
    r.ipc = st.ipc();
    r.mispred = st.mispredictRate();
    r.stream_len = st.engine.get("stream.avg_commit_len");
    r.taken = evaluateLayout(work.program(), work.profile(), img)
                  .takenFraction();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opts;
    opts.insts = 1'000'000;

    CliParser cli("ablation_layout",
                  "Layout algorithm ablation, stream fetch engine "
                  "(8-wide)");
    cli.addStandard(&opts, CliParser::kInsts | CliParser::kBench |
                               CliParser::kJobs);
    cli.parseOrExit(argc, argv);
    opts.benches = resolveBenches(opts.benches);

    std::printf("Layout algorithm ablation, stream fetch engine "
                "(8-wide, %llu insts per benchmark)\n\n",
                static_cast<unsigned long long>(opts.insts));

    // One result triple per benchmark, aggregated after the sweep.
    std::vector<std::vector<Result>> per_bench(
        opts.benches.size(), std::vector<Result>(kNumLayouts));

    SweepDriver driver(opts.jobs);
    driver.forEachWorkload(
        opts.benches, [&](const PlacedWorkload &work, std::size_t i) {
            const std::vector<std::vector<BlockId>> orders = {
                baselineOrder(work.program()),
                optimizedOrder(work.program(), work.profile()),
                stcOrder(work.program(), work.profile()),
            };
            for (int k = 0; k < kNumLayouts; ++k)
                per_bench[i][k] =
                    runStreams(work, orders[k], opts.insts);
        });

    TablePrinter tp;
    tp.addHeader({"layout", "IPC", "mispredict", "stream len",
                  "cond taken"});
    for (int k = 0; k < kNumLayouts; ++k) {
        std::vector<double> ipc, mispred, len, taken;
        for (const std::vector<Result> &rs : per_bench) {
            ipc.push_back(rs[k].ipc);
            mispred.push_back(rs[k].mispred);
            len.push_back(rs[k].stream_len);
            taken.push_back(rs[k].taken);
        }
        tp.addRow({kLayoutNames[k],
                   TablePrinter::fmt(harmonicMean(ipc)),
                   TablePrinter::pct(arithmeticMean(mispred)),
                   TablePrinter::fmt(arithmeticMean(len), 1),
                   TablePrinter::pct(arithmeticMean(taken))});
    }
    std::printf("%s", tp.render().c_str());
    return 0;
}
