/**
 * @file
 * Compare fetch architectures on one benchmark, both code layouts,
 * at a chosen pipe width — a one-benchmark slice of the paper's
 * evaluation. Defaults to the paper's four engines; `--arch` swaps
 * in any registered specs.
 *
 * Usage: arch_compare [benchmark] [width]
 *        arch_compare --bench gcc --width 8 --arch stream,seq
 */

#include <cstdio>
#include <string>

#include "sim/cli.hh"
#include "sim/driver.hh"
#include "sim/workload_cache.hh"
#include "util/table.hh"

using namespace sfetch;

namespace
{

int
run(int argc, char **argv)
{
    CliOptions opts;
    opts.insts = 1'000'000;
    opts.benches = {"gcc"};
    unsigned width = 8;

    CliParser cli("arch_compare",
                  "registered fetch architectures on one benchmark, "
                  "both layouts");
    cli.addStandard(&opts, CliParser::kInsts | CliParser::kBench |
                               CliParser::kJobs | CliParser::kFormat |
                               CliParser::kArch);
    cli.addOption("--width", "2|4|8", "pipe width (default 8)",
                  [&](const std::string &v) {
                      width = CliParser::parseWidthList(v).at(0);
                  });
    int positionals = 0;
    cli.onPositional("[benchmark] [width]",
                     "benchmark name and pipe width, in order",
                     [&](const std::string &v) {
                         if (positionals == 0)
                             opts.benches = {v};
                         else if (positionals == 1)
                             width =
                                 CliParser::parseWidthList(v).at(0);
                         else
                             throw std::invalid_argument(
                                 "too many arguments");
                         ++positionals;
                     });
    cli.parseOrExit(argc, argv);

    const std::string bench = requireSingleBench(opts, "arch_compare");
    std::printf("benchmark %s, %u-wide pipeline\n\n", bench.c_str(),
                width);

    const PlacedWorkload &work = WorkloadCache::instance().get(bench);
    std::printf("static insts: %llu, blocks: %zu, "
                "stubs base/opt: %zu/%zu\n\n",
                static_cast<unsigned long long>(
                    work.program().staticInsts()),
                work.program().numBlocks(),
                work.image(false).numStubs(),
                work.image(true).numStubs());

    std::vector<SimConfig> cfgs;
    for (const SimConfig &arch : opts.archsOrPaperSet())
        for (bool opt : {false, true})
            cfgs.push_back(opts.stamped(arch, width, opt));

    SweepDriver driver(opts.jobs);
    ResultSet rs = driver.run(SweepDriver::grid({bench}, cfgs));
    if (emitMachineReadable(rs, opts.format))
        return 0;

    const bool verbose = std::getenv("SFETCH_VERBOSE") != nullptr;

    TablePrinter tp;
    tp.addHeader({"architecture", "layout", "IPC", "fetch IPC",
                  "mispredict", "L1I miss"});
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const ResultRow &r = rs.at(i);
        const SimStats &st = r.stats;
        tp.addRow({r.cfg.label(),
                   r.cfg.optimizedLayout ? "optimized" : "base",
                   TablePrinter::fmt(st.ipc()),
                   TablePrinter::fmt(st.fetchIpc()),
                   TablePrinter::pct(st.mispredictRate()),
                   TablePrinter::pct(st.l1iMissRate, 2)});
        if (r.cfg.optimizedLayout)
            tp.addSeparator();
        if (verbose) {
            std::printf("--- %s %s ---\n", r.cfg.label().c_str(),
                        r.cfg.optimizedLayout ? "opt" : "base");
            std::printf("cond mispred %.2f%% (%llu/%llu)  "
                        "other mispred %llu of %llu branches\n",
                        100.0 * double(st.condMispredicts) /
                            double(st.committedCondBranches ?
                                   st.committedCondBranches : 1),
                        (unsigned long long)st.condMispredicts,
                        (unsigned long long)st.committedCondBranches,
                        (unsigned long long)(st.mispredicts -
                                             st.condMispredicts),
                        (unsigned long long)st.committedBranches);
            std::printf("by type: none %llu cond %llu jump %llu "
                        "call %llu ret %llu ind %llu\n",
                        (unsigned long long)st.mispredictsByType[0],
                        (unsigned long long)st.mispredictsByType[1],
                        (unsigned long long)st.mispredictsByType[2],
                        (unsigned long long)st.mispredictsByType[3],
                        (unsigned long long)st.mispredictsByType[4],
                        (unsigned long long)st.mispredictsByType[5]);
            std::printf("%s", st.engine.dump().c_str());
        }
    }
    std::printf("%s", tp.render().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("arch_compare", [&] { return run(argc, argv); });
}
