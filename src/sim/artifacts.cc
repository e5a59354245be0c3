#include "sim/artifacts.hh"

#include <cstdio>
#include <map>

#include "layout/layout_opt.hh"
#include "sim/driver.hh"
#include "util/table.hh"

namespace sfetch
{

namespace
{

double ipc(const ResultRow &r) { return r.stats.ipc(); }
double fetchIpc(const ResultRow &r) { return r.stats.fetchIpc(); }
double mispredict(const ResultRow &r) { return r.stats.mispredictRate(); }

double
partialHits(const ResultRow &r)
{
    return r.stats.engine.get("tc.partial_hits");
}

std::string
fig8Caption(unsigned w)
{
    return std::string("---- Figure 8") + (w == 2 ? 'a' : w == 4 ? 'b' : 'c') +
           ": " + std::to_string(w) + "-wide processor ----\n";
}

std::string
cell(double v, CellFormat f)
{
    return f == CellFormat::Percent ? TablePrinter::pct(v)
                                    : TablePrinter::fmt(v, int(f));
}

std::string
runTable1(const CliOptions &opts)
{
    std::string out;
    SweepDriver driver(opts.jobs);
    for (bool opt : {false, true}) {
        std::vector<FetchUnitSizes> sizes(opts.benches.size());
        driver.forEachWorkload(
            opts.benches, [&](const PlacedWorkload &work, std::size_t b) {
                sizes[b] = measureFetchUnits(work, opt, opts.insts);
            });
        TablePrinter tp;
        tp.addHeader({"fetch unit", "mean size", "p50", "p90"});
        // One row per unit, over the suite's merged histograms.
        auto row = [&](const char *name, Histogram FetchUnitSizes::*unit) {
            Histogram all = sizes[0].*unit;
            for (std::size_t b = 1; b < sizes.size(); ++b)
                all.merge(sizes[b].*unit);
            tp.addRow({name, TablePrinter::fmt(all.mean(), 1),
                       TablePrinter::fmt(double(all.percentile(0.5)), 0),
                       TablePrinter::fmt(double(all.percentile(0.9)), 0)});
        };
        row("basic block (BTB unit)", &FetchUnitSizes::basicBlock);
        row("trace (<=16 insts, <=3 cond)", &FetchUnitSizes::trace);
        row("stream", &FetchUnitSizes::stream);
        out += std::string("---- ") + (opt ? "optimized" : "baseline") +
               " codes ----\n" + tp.render() + "\n";
    }
    return out + "Paper's Table 1 reference points: basic block 5-6, "
                 "trace ~14, stream 20+ (optimized).\n";
}

std::string
runLayouts(const CliOptions &opts)
{
    // [bench][order]: IPC, mispredict rate, stream length, cond taken.
    std::vector<std::vector<std::vector<double>>> runs(
        opts.benches.size());
    SweepDriver driver(opts.jobs);
    driver.forEachWorkload(
        opts.benches, [&](const PlacedWorkload &work, std::size_t i) {
            const Program &prog = work.program();
            const EdgeProfile prof = work.trainProfile();
            for (const auto &order :
                 {baselineOrder(prog), optimizedOrder(prog, prof),
                  stcOrder(prog, prof)}) {
                const CodeImage img(prog, order);
                const SimStats st =
                    runOn(work, img, opts.stamped(SimConfig("stream")));
                runs[i].push_back(
                    {st.ipc(), st.mispredictRate(),
                     st.engine.get("stream.avg_commit_len"),
                     evaluateLayout(prog, prof, img)
                         .takenFraction()});
            }
        });
    const char *const names[] = {"baseline (compiler order)",
                                 "Pettis-Hansen chains", "STC seed-and-grow"};
    TablePrinter tp;
    tp.addHeader({"layout", "IPC", "mispredict", "stream len", "cond taken"});
    for (std::size_t k = 0; k < 3; ++k) {
        std::vector<std::vector<double>> v(4);
        for (const auto &bench : runs)
            for (std::size_t m = 0; m < 4; ++m)
                v[m].push_back(bench[k][m]);
        tp.addRow({names[k], TablePrinter::fmt(harmonicMean(v[0])),
                   TablePrinter::pct(arithmeticMean(v[1])),
                   TablePrinter::fmt(arithmeticMean(v[2]), 1),
                   TablePrinter::pct(arithmeticMean(v[3]))});
    }
    return tp.render();
}

/** A table row before the width axis: one arch with one variant. */
struct Line
{
    SimConfig cfg;
    std::vector<std::string> cells;
    unsigned layouts;
};

std::string
renderTable(const PaperArtifact &a, const ResultSet &rs, unsigned width,
            const Line *first, const Line *last)
{
    TablePrinter tp;
    std::vector<std::string> header = a.labels;
    for (const ArtifactColumn &c : a.columns)
        header.push_back(c.header);
    tp.addHeader(header);
    for (const Line *l = first; l != last; ++l) {
        const std::string spec = l->cfg.specText();
        std::vector<std::string> row = l->cells;
        std::vector<double> vals;
        for (const ArtifactColumn &c : a.columns) {
            const unsigned mask = c.layouts ? c.layouts : l->layouts;
            auto sel = [&](const ResultRow &r) {
                return r.cfg.width == width && r.cfg.specText() == spec &&
                       ((mask >> r.cfg.optimizedLayout) & 1u);
            };
            double v = 0.0;
            if (!c.metric) {
                const double base = vals[vals.size() - 2];
                v = base > 0 ? vals.back() / base : 0;
            } else if (c.sum) {
                for (double x : rs.collect(sel, c.metric))
                    v += x;
            } else {
                v = rs.mean(c.mean, sel, c.metric);
            }
            vals.push_back(v);
            row.push_back(cell(v, c.format));
        }
        tp.addRow(row);
    }
    return tp.render() + a.tableEnd;
}

/** Fig 9's shape: per-benchmark rows, the best arch and its wins. */
std::string
renderPerBench(const PaperArtifact &a, const ResultSet &rs,
               const std::vector<std::string> &benches,
               const std::vector<Line> &lines)
{
    const ArtifactColumn &c = a.columns.front();
    std::vector<std::string> header = a.labels, mean_row = {"Hmean"};
    std::string wins_line = "wins per architecture:";
    std::map<std::string, std::vector<double>> per_spec;
    std::map<std::string, int> wins; // by label
    TablePrinter tp;
    for (const Line &l : lines)
        header.push_back(l.cells[0]);
    header.push_back("best");
    tp.addHeader(header);
    for (const std::string &bench : benches) {
        std::vector<std::string> row = {bench};
        std::string best;
        double best_v = 0.0;
        for (const Line &l : lines) {
            const std::string spec = l.cfg.specText();
            // The mean of the one run: its value, or 0 when absent.
            const double v = rs.mean(
                MeanKind::Arithmetic,
                [&](const ResultRow &r) {
                    return r.bench == bench && r.cfg.specText() == spec;
                },
                c.metric);
            per_spec[spec].push_back(v);
            row.push_back(cell(v, c.format));
            if (v > best_v) {
                best_v = v;
                best = l.cells[0];
            }
        }
        ++wins[best];
        row.push_back(best);
        tp.addRow(row);
    }
    tp.addSeparator();
    for (const Line &l : lines) {
        mean_row.push_back(
            cell(meanOf(per_spec[l.cfg.specText()], c.mean), c.format));
        wins_line += "  " + l.cells[0] + ": " +
                     std::to_string(wins[l.cells[0]]);
    }
    mean_row.push_back("");
    tp.addRow(mean_row);
    return tp.render() + a.tableEnd + wins_line + "\n";
}

} // namespace

const std::vector<PaperArtifact> &
paperArtifacts()
{
    using CP = CliParser;
    using MK = MeanKind;
    using F = CellFormat;
    using S = ArtifactSplit;
    const unsigned walk = CP::kInsts | CP::kBench | CP::kJobs;
    const unsigned fixed_arch = CP::kSweep & ~unsigned(CP::kArch);
    const ArtifactColumn ipc_col = {"IPC", ipc, MK::Harmonic, F::Fixed2};
    const ArtifactColumn fetch_col = {"fetch IPC", fetchIpc, MK::Arithmetic,
                                      F::Fixed2};
    const ArtifactColumn mispredict_col = {"mispredict", mispredict,
                                           MK::Arithmetic, F::Percent};
    static const std::vector<PaperArtifact> artifacts = {
        {"table1", "Table 1: dynamic fetch unit sizes", 1'000'000, walk,
         "Table 1 (measured column): dynamic fetch unit sizes in "
         "instructions\n(suite average over %1$llu committed insts per "
         "benchmark)\n\n",
         runTable1},
        {"table3", "Table 3: mispredict rate and fetch IPC, 8-wide",
         1'500'000, CP::kSweep,
         "Table 3: branch misprediction rate and fetch IPC, 8-wide "
         "processor (%1$llu insts)\n\n",
         nullptr, {8}, nullptr, kBothLayouts, {}, {""},
         {{"base Mispred.", mispredict, MK::Arithmetic, F::Percent,
           kBaseLayout},
          {"base Fetch", fetchIpc, MK::Arithmetic, F::Fixed1, kBaseLayout},
          {"base IPC", ipc, MK::Harmonic, F::Fixed2, kBaseLayout},
          {"opt Mispred.", mispredict, MK::Arithmetic, F::Percent,
           kOptLayout},
          {"opt Fetch", fetchIpc, MK::Arithmetic, F::Fixed1, kOptLayout},
          {"opt IPC", ipc, MK::Harmonic, F::Fixed2, kOptLayout}}},
        {"fig8", "Figure 8: harmonic-mean IPC per width and layout",
         1'500'000, CP::kSweep | CP::kWidths,
         "Figure 8: IPC for pipeline widths, base vs optimized layouts\n"
         "(harmonic mean over %2$zu benchmarks, %1$llu measured insts "
         "each)\n\n",
         nullptr, {2, 4, 8}, nullptr, kBothLayouts, {}, {"architecture"},
         {{"base IPC", ipc, MK::Harmonic, F::Fixed2, kBaseLayout},
          {"optimized IPC", ipc, MK::Harmonic, F::Fixed2, kOptLayout},
          {"opt/base", nullptr, MK::Harmonic, F::Fixed3}},
         S::PerWidth, fig8Caption, "\n"},
        {"fig9", "Figure 9: per-benchmark IPC, 8-wide, optimized codes",
         1'500'000, CP::kSweep,
         "Figure 9: per-benchmark IPC, 8-wide processor, optimized codes "
         "(%1$llu insts)\n\n",
         nullptr, {8}, nullptr, kOptLayout, {}, {"benchmark"}, {ipc_col},
         S::PerBench, nullptr, "\n"},
        {"predictor", "Section 3.2: stream predictor ablations", 1'000'000,
         fixed_arch,
         "Stream predictor ablations (8-wide, optimized codes, %1$llu "
         "insts)\n\n",
         nullptr, {8}, "stream", kOptLayout,
         {{"", {"cascaded + 2-bit hysteresis (paper)"}},
          {"single_table=1", {"single address-indexed table"}},
          {"no_hysteresis=1", {"cascaded, 1-bit counters"}}},
         {"variant"}, {mispredict_col, fetch_col, ipc_col}},
        {"ftq", "Section 3.3: FTQ depth ablation", 1'000'000, CP::kSweep,
         "FTQ depth ablation (8-wide, optimized codes)\n\n", nullptr, {8},
         "stream", kOptLayout,
         {{"ftq=1", {"1"}}, {"ftq=2", {"2"}}, {"ftq=4", {"4"}},
          {"ftq=8", {"8"}}, {"ftq=16", {"16"}}},
         {"FTQ entries"}, {fetch_col, ipc_col}, S::PerArch},
        {"linewidth", "Figure 7: i-cache line size vs fetch performance",
         1'000'000, CP::kSweep,
         "Figure 7 ablation: i-cache line size vs fetch performance "
         "(8-wide, optimized codes)\n\n",
         nullptr, {8}, "stream", kOptLayout,
         {{"line=32", {"32", "8"}}, {"line=64", {"64", "16"}},
          {"line=128", {"128", "32"}}},
         {"line bytes", "insts/line"}, {fetch_col, ipc_col}, S::PerArch},
        {"partial_match", "Footnote 3: trace cache partial matching",
         1'000'000, fixed_arch,
         "Partial matching ablation for the trace cache (8-wide, %1$llu "
         "insts)\nPaper footnote 3: partial matching *hurts* with "
         "layout-optimized codes.\n\n",
         nullptr, {8}, "trace", kBothLayouts,
         {{"partial_match=0", {"base", "off"}, kBaseLayout},
          {"partial_match=1", {"base", "on"}, kBaseLayout},
          {"partial_match=0", {"optimized", "off"}, kOptLayout},
          {"partial_match=1", {"optimized", "on"}, kOptLayout}},
         {"layout", "partial match"},
         {ipc_col, mispredict_col,
          {"partial hits", partialHits, MK::Arithmetic, F::Fixed0, 0,
           true}}},
        {"layout", "Layout optimizer comparison (PH vs STC), streams",
         1'000'000, walk,
         "Layout algorithm ablation, stream fetch engine (8-wide, %1$llu "
         "insts per benchmark)\n\n",
         runLayouts},
    };
    return artifacts;
}

CliOptions
parseArtifactArgs(const PaperArtifact &a, int argc, char **argv)
{
    CliOptions opts;
    opts.insts = a.insts;
    opts.widths = a.widths;
    if (a.archs)
        opts.archs = parseArchSpecList(a.archs);
    CliParser cli(std::string("paper ") + a.name, a.title);
    cli.addStandard(&opts, a.cli);
    cli.parseOrExit(argc, argv);
    opts.benches = resolveBenches(opts.benches);
    return opts;
}

std::string
runArtifact(const PaperArtifact &a, const CliOptions &opts)
{
    char heading[512];
    std::snprintf(heading, sizeof heading, a.heading,
                  static_cast<unsigned long long>(opts.insts),
                  opts.benches.size());
    if (a.run)
        return heading + a.run(opts);

    const std::vector<SimConfig> archs = opts.archsOrPaperSet();
    const std::vector<ArtifactVariant> identity = {{""}};
    std::vector<Line> lines;
    for (const SimConfig &arch : archs)
        for (const ArtifactVariant &v :
             a.variants.empty() ? identity : a.variants) {
            lines.push_back({arch, v.cells, v.layouts ? v.layouts : a.layouts});
            lines.back().cfg.params().applySpecText(v.params);
            if (v.cells.empty())
                lines.back().cells = {arch.label()};
        }
    std::vector<SimConfig> cfgs;
    for (unsigned w : opts.widths)
        for (const Line &l : lines)
            for (bool opt : {false, true})
                if ((l.layouts >> opt) & 1u)
                    cfgs.push_back(opts.stamped(l.cfg, w, opt));
    SweepDriver driver(opts.jobs);
    const ResultSet rs = driver.run(SweepDriver::grid(opts.benches, cfgs));
    if (opts.format != OutputFormat::Table)
        return opts.format == OutputFormat::Csv ? rs.toCsv() : rs.toJson();

    std::string out = heading;
    if (a.split == ArtifactSplit::PerBench)
        return out + renderPerBench(a, rs, opts.benches, lines);
    const std::size_t groups =
        a.split == ArtifactSplit::PerArch ? archs.size() : 1;
    const std::size_t n = lines.size() / groups;
    for (unsigned w : opts.widths)
        for (std::size_t i = 0; i < groups; ++i)
            out += (a.split == ArtifactSplit::PerArch
                        ? "---- " + archs[i].label() + " ----\n"
                        : a.caption ? a.caption(w) : "") +
                   renderTable(a, rs, w, lines.data() + i * n,
                               lines.data() + (i + 1) * n);
    return out;
}

} // namespace sfetch
