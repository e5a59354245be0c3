/**
 * @file
 * Ablations of the next stream predictor's design choices
 * (Section 3.2): the cascaded second (path) table, and the 2-bit
 * hysteresis replacement counters that let the predictor hold
 * overlapping streams. The variants are the stream engine's
 * `single_table` / `no_hysteresis` parameters.
 *
 * Usage: ablation_predictor [--insts N] [--bench name] [--jobs N]
 *                           [--format table|csv|json]
 */

#include <cstdio>

#include "sim/cli.hh"
#include "sim/driver.hh"
#include "util/table.hh"

using namespace sfetch;

namespace
{

struct Variant
{
    const char *name;
    const char *spec;
};

const Variant kVariants[] = {
    {"cascaded + 2-bit hysteresis (paper)", "stream"},
    {"single address-indexed table", "stream:single_table=1"},
    {"cascaded, 1-bit counters", "stream:no_hysteresis=1"},
};

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opts;
    opts.insts = 1'000'000;

    CliParser cli("ablation_predictor",
                  "Stream predictor ablations (8-wide, optimized "
                  "codes)");
    cli.addStandard(&opts,
                    CliParser::kSweep & ~unsigned(CliParser::kArch));
    cli.parseOrExit(argc, argv);
    opts.benches = resolveBenches(opts.benches);

    std::vector<SimConfig> cfgs;
    for (const Variant &v : kVariants)
        cfgs.push_back(
            opts.stamped(SimConfig::fromSpec(v.spec), 8, true));

    SweepDriver driver(opts.jobs);
    ResultSet rs = driver.run(SweepDriver::grid(opts.benches, cfgs));
    if (emitMachineReadable(rs, opts.format))
        return 0;

    std::printf("Stream predictor ablations (8-wide, optimized "
                "codes, %llu insts)\n\n",
                static_cast<unsigned long long>(opts.insts));

    TablePrinter tp;
    tp.addHeader({"variant", "mispredict", "fetch IPC", "IPC"});
    for (const Variant &v : kVariants) {
        const std::string spec =
            SimConfig::fromSpec(v.spec).specText();
        auto sel = [&](const ResultRow &r) {
            return r.cfg.specText() == spec;
        };
        tp.addRow({v.name,
                   TablePrinter::pct(rs.mean(
                       MeanKind::Arithmetic, sel,
                       [](const ResultRow &r) {
                           return r.stats.mispredictRate();
                       })),
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
    return 0;
}
