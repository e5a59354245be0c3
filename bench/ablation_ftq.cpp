/**
 * @file
 * Ablation of the fetch target queue depth (Section 3.3): the FTQ
 * decouples stream prediction from the i-cache; deeper queues let
 * the predictor run further ahead. The paper uses 4 entries.
 * Defaults to the stream engine; `--arch ftb` (or any registered
 * engine declaring an `ftq` parameter) sweeps that front end's queue
 * instead.
 *
 * Usage: ablation_ftq [--insts N] [--bench name] [--arch SPEC]
 *                     [--jobs N] [--format table|csv|json]
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

    CliParser cli("ablation_ftq",
                  "FTQ depth ablation (8-wide, optimized codes)");
    cli.addStandard(&opts, CliParser::kSweep);
    cli.parseOrExit(argc, argv);
    opts.benches = resolveBenches(opts.benches);

    const std::int64_t depths[] = {1, 2, 4, 8, 16};
    std::vector<SimConfig> cfgs;
    for (const SimConfig &arch : opts.archs) {
        if (!arch.descriptor().params.find("ftq")) {
            std::fprintf(stderr,
                         "ablation_ftq: engine '%s' has no ftq "
                         "parameter (try stream or ftb)\n",
                         arch.arch().c_str());
            return 2;
        }
        for (std::int64_t depth : depths) {
            SimConfig cfg = opts.stamped(arch, 8, true);
            cfg.params().setInt("ftq", depth);
            cfgs.push_back(cfg);
        }
    }

    SweepDriver driver(opts.jobs);
    ResultSet rs = driver.run(SweepDriver::grid(opts.benches, cfgs));
    if (emitMachineReadable(rs, opts.format))
        return 0;

    std::printf("FTQ depth ablation (8-wide, optimized codes)\n\n");

    for (const SimConfig &arch : opts.archs) {
        std::printf("---- %s ----\n", arch.label().c_str());
        TablePrinter tp;
        tp.addHeader({"FTQ entries", "fetch IPC", "IPC"});
        for (std::int64_t depth : depths) {
            // Match the full spec (base parameters + this depth),
            // not just the engine token: two variants of one engine
            // must not pool each other's rows.
            SimConfig variant = arch;
            variant.params().setInt("ftq", depth);
            const std::string spec = variant.specText();
            auto sel = [&](const ResultRow &r) {
                return r.cfg.specText() == spec;
            };
            tp.addRow({std::to_string(depth),
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
