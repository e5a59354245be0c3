/**
 * @file
 * Reproduces Figure 9 of the paper: per-benchmark IPC for the 8-wide
 * processor with layout-optimized codes, all four architectures (or
 * any `--arch` engine spec list).
 *
 * Usage: fig9_per_benchmark [--insts N] [--bench name]
 *                           [--arch SPEC,...] [--jobs N]
 *                           [--format table|csv|json]
 */

#include <cstdio>
#include <map>

#include "sim/cli.hh"
#include "sim/driver.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace sfetch;

int
main(int argc, char **argv)
{
    CliOptions opts;
    opts.insts = 1'500'000;

    CliParser cli("fig9_per_benchmark",
                  "Figure 9: per-benchmark IPC, 8-wide processor, "
                  "optimized codes");
    cli.addStandard(&opts, CliParser::kSweep);
    cli.parseOrExit(argc, argv);
    opts.benches = resolveBenches(opts.benches);

    const std::vector<SimConfig> archs = opts.archsOrPaperSet();
    std::vector<SimConfig> cfgs;
    for (const SimConfig &arch : archs)
        cfgs.push_back(opts.stamped(arch, 8, true));

    SweepDriver driver(opts.jobs);
    ResultSet rs = driver.run(SweepDriver::grid(opts.benches, cfgs));
    if (emitMachineReadable(rs, opts.format))
        return 0;

    std::printf("Figure 9: per-benchmark IPC, 8-wide processor, "
                "optimized codes (%llu insts)\n\n",
                static_cast<unsigned long long>(opts.insts));

    TablePrinter tp;
    std::vector<std::string> header = {"benchmark"};
    for (const SimConfig &arch : archs)
        header.push_back(arch.label());
    header.push_back("best");
    tp.addHeader(header);

    // Keyed by canonical engine spec, filled in arch order.
    std::map<std::string, std::vector<double>> per_arch;
    std::map<std::string, int> wins;

    for (const std::string &bench : opts.benches) {
        std::vector<std::string> row = {bench};
        double best = 0.0;
        std::string best_label;
        for (const SimConfig &arch : archs) {
            std::vector<double> ipc = rs.collect(
                [&](const ResultRow &r) {
                    return r.bench == bench &&
                        r.cfg.specText() == arch.specText();
                },
                [](const ResultRow &r) { return r.stats.ipc(); });
            double v = ipc.empty() ? 0.0 : ipc.front();
            per_arch[arch.specText()].push_back(v);
            row.push_back(TablePrinter::fmt(v));
            if (v > best) {
                best = v;
                best_label = arch.label();
            }
        }
        ++wins[best_label];
        row.push_back(best_label);
        tp.addRow(row);
    }

    tp.addSeparator();
    std::vector<std::string> hm = {"Hmean"};
    for (const SimConfig &arch : archs)
        hm.push_back(TablePrinter::fmt(
            harmonicMean(per_arch[arch.specText()])));
    hm.push_back("");
    tp.addRow(hm);
    std::printf("%s\n", tp.render().c_str());

    std::printf("wins per architecture:");
    for (const SimConfig &arch : archs)
        std::printf("  %s: %d", arch.label().c_str(),
                    wins[arch.label()]);
    std::printf("\n");
    return 0;
}
