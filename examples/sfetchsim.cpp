/**
 * @file
 * sfetchsim: command-line driver for arbitrary simulations over the
 * engine registry.
 *
 * Usage:
 *   sfetchsim [--arch SPEC[,SPEC...]] [--bench SPEC[,SPEC...]|all]
 *             [--width 2|4|8] [--layout base|opt] [--insts N]
 *             [--warmup N] [--jobs N] [--format table|csv|json]
 *             [--stats] [--list-archs] [--list-benches]
 *
 * --arch SPEC is `arch[:key=value,...]` over the registered engines
 * (see --list-archs); --bench SPEC is a suite preset name or
 * `family[:key=value,...]` over the registered workload families
 * (see --list-benches). A run that fails prints one
 * `sfetchsim: <error>` line and exits 1.
 *
 * Examples:
 *   sfetchsim --arch stream --bench gcc --width 8 --layout opt
 *   sfetchsim --arch stream:ftq=8,single_table=1,seq --bench all
 *   sfetchsim --bench loops:depth=4,trips=32,server --stats
 */

#include <cstdio>

#include "sim/cli.hh"
#include "sim/driver.hh"
#include "sim/workload_cache.hh"
#include "util/stats.hh"
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
    opts.archs = {SimConfig("stream")};

    unsigned width = 8;
    bool optimized = true;
    bool dump_stats = false;

    CliParser cli("sfetchsim",
                  "run any registered machine configuration over one "
                  "or more suite benchmarks");
    cli.addStandard(&opts, CliParser::kSweep | CliParser::kWarmup);
    cli.addOption("--width", "2|4|8", "pipe width (default 8)",
                  [&](const std::string &v) {
                      width = CliParser::parseWidthList(v).at(0);
                  });
    cli.addOption("--layout", "base|opt",
                  "code layout (default opt)",
                  [&](const std::string &v) {
                      optimized = v != "base";
                  });
    cli.addFlag("--stats", "dump engine-internal statistics",
                [&] { dump_stats = true; });
    cli.parseOrExit(argc, argv);

    opts.benches = resolveBenches(opts.benches);
    std::vector<SimConfig> cfgs;
    for (const SimConfig &arch : opts.archs)
        cfgs.push_back(opts.stamped(arch, width, optimized));

    SweepDriver driver(opts.jobs);
    const ResultSet rs =
        driver.run(SweepDriver::grid(opts.benches, cfgs));
    if (emitMachineReadable(rs, opts.format))
        return 0;

    TablePrinter tp;
    tp.addHeader({"benchmark", "arch", "width", "layout", "IPC",
                  "fetch IPC", "mispredict", "L1I miss"});
    std::vector<double> ipcs;
    for (const ResultRow &r : rs.rows()) {
        ipcs.push_back(r.stats.ipc());
        tp.addRow({r.bench, r.cfg.label(),
                   std::to_string(r.cfg.width),
                   r.cfg.optimizedLayout ? "opt" : "base",
                   TablePrinter::fmt(r.stats.ipc()),
                   TablePrinter::fmt(r.stats.fetchIpc()),
                   TablePrinter::pct(r.stats.mispredictRate()),
                   TablePrinter::pct(r.stats.l1iMissRate, 2)});
        if (dump_stats)
            std::printf("--- %s / %s engine stats ---\n%s",
                        r.bench.c_str(), r.cfg.label().c_str(),
                        r.stats.engine.dump().c_str());
    }
    if (rs.size() > 1) {
        tp.addSeparator();
        tp.addRow({"Hmean", "", "", "",
                   TablePrinter::fmt(harmonicMean(ipcs)), "", "",
                   ""});
    }
    std::printf("%s", tp.render().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("sfetchsim", [&] { return run(argc, argv); });
}
