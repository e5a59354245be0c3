/**
 * @file
 * Ablation for the Section 3.4 / Figure 7 design discussion: the
 * instruction misalignment problem. Sweeps the i-cache line size
 * (1x, 2x, 4x the fetch width) and reports fetch IPC and processor
 * IPC: wide lines reduce the chance of a stream crossing a line
 * boundary. Defaults to the stream engine; the `line` parameter is
 * engine-agnostic, so `--arch` sweeps any registered front end.
 *
 * Usage: ablation_linewidth [--insts N] [--bench name] [--arch SPEC]
 *                           [--jobs N] [--format table|csv|json]
 */

#include <cstdio>

#include "sim/cli.hh"
#include "sim/driver.hh"
#include "util/table.hh"

using namespace sfetch;

int
main(int argc, char **argv)
{
    CliOptions opts;
    opts.insts = 1'000'000;
    opts.archs = {SimConfig("stream")};

    CliParser cli("ablation_linewidth",
                  "Figure 7 ablation: i-cache line size vs fetch "
                  "performance");
    cli.addStandard(&opts, CliParser::kSweep);
    cli.parseOrExit(argc, argv);
    opts.benches = resolveBenches(opts.benches);

    const unsigned width = 8;
    const unsigned mults[] = {1, 2, 4};
    std::vector<SimConfig> cfgs;
    for (const SimConfig &arch : opts.archs) {
        for (unsigned mult : mults) {
            SimConfig cfg = opts.stamped(arch, width, true);
            cfg.params().setInt("line", mult * width * kInstBytes);
            cfgs.push_back(cfg);
        }
    }

    SweepDriver driver(opts.jobs);
    ResultSet rs = driver.run(SweepDriver::grid(opts.benches, cfgs));
    if (emitMachineReadable(rs, opts.format))
        return 0;

    std::printf("Figure 7 ablation: i-cache line size vs fetch "
                "performance (8-wide, optimized codes)\n\n");

    for (const SimConfig &arch : opts.archs) {
        std::printf("---- %s ----\n", arch.label().c_str());
        TablePrinter tp;
        tp.addHeader({"line bytes", "insts/line", "fetch IPC", "IPC"});
        for (unsigned mult : mults) {
            unsigned line = mult * width * kInstBytes;
            // Full-spec match, so same-engine variants from --arch
            // never pool each other's rows.
            SimConfig variant = arch;
            variant.params().setInt("line", line);
            const std::string spec = variant.specText();
            auto sel = [&](const ResultRow &r) {
                return r.cfg.specText() == spec;
            };
            tp.addRow({std::to_string(line),
                       std::to_string(line / kInstBytes),
                       TablePrinter::fmt(rs.mean(
                           MeanKind::Arithmetic, sel,
                           [](const ResultRow &r) {
                               return r.stats.fetchIpc();
                           })),
                       TablePrinter::fmt(rs.mean(
                           MeanKind::Harmonic, sel,
                           [](const ResultRow &r) {
                               return r.stats.ipc();
                           }))});
        }
        std::printf("%s", tp.render().c_str());
    }
    return 0;
}
