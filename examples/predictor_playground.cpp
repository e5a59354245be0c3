/**
 * @file
 * Offline branch predictor study: feeds the committed (oracle)
 * branch stream of a suite benchmark straight into the direction
 * predictor library — no pipeline, no wrong path — to measure the
 * intrinsic predictability of the workload and compare predictors
 * under ideal conditions.
 *
 * Usage: predictor_playground [benchmark] [--insts N]
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bpred/direction_pred.hh"
#include "bpred/history.hh"
#include "bpred/gskew.hh"
#include "bpred/perceptron.hh"
#include "layout/oracle_arena.hh"
#include "sim/cli.hh"
#include "sim/workload_cache.hh"
#include "util/table.hh"

using namespace sfetch;

namespace
{

int
run(int argc, char **argv)
{
    CliOptions opts;
    opts.insts = 3'000'000;
    opts.benches = {"gzip"};

    CliParser cli("predictor_playground",
                  "offline direction-predictor comparison on one "
                  "benchmark's oracle branch stream");
    cli.addStandard(&opts, CliParser::kInsts | CliParser::kBench);
    cli.onPositional("[benchmark]", "suite benchmark (default gzip)",
                     [&](const std::string &v) {
                         opts.benches = {v};
                     });
    cli.parseOrExit(argc, argv);

    const std::string bench =
        requireSingleBench(opts, "predictor_playground");
    const PlacedWorkload &work = WorkloadCache::instance().get(bench);
    const CodeImage &image = work.image(true);

    struct Entry
    {
        std::string name;
        std::unique_ptr<DirectionPredictor> pred;
        std::uint64_t mispredicts = 0;
        GlobalHistory hist;
    };
    std::vector<Entry> preds;
    auto add = [&](const std::string &name,
                   std::unique_ptr<DirectionPredictor> pred) {
        Entry e;
        e.name = name;
        e.pred = std::move(pred);
        preds.push_back(std::move(e));
    };
    add("bimodal-4K", std::make_unique<BimodalPredictor>(4096));
    add("gshare-16K", std::make_unique<GsharePredictor>(16384, 12));
    add("local-2level", std::make_unique<LocalPredictor>());
    add("2bcgskew", std::make_unique<GskewPredictor>());
    add("perceptron", std::make_unique<PerceptronPredictor>());

    RunWalker walk(image, work.model(), kRefSeed);
    std::uint64_t branches = 0;
    PathRun run;
    for (InstCount i = 0; i < opts.insts && walk.next(run, opts.insts - i);
         i += run.len) {
        const CommittedBranch &br = run.branch;
        if (br.type != BranchType::CondDirect)
            continue;
        ++branches;
        for (auto &e : preds) {
            bool p = e.pred->predict(br.pc, e.hist.value());
            if (p != br.taken)
                ++e.mispredicts;
            e.pred->update(br.pc, e.hist.value(), br.taken);
            e.hist.push(br.taken);
        }
    }

    std::printf("%s: %llu conditional branches over %llu insts "
                "(%.1f%% of stream)\n\n",
                bench.c_str(),
                static_cast<unsigned long long>(branches),
                static_cast<unsigned long long>(opts.insts),
                100.0 * double(branches) / double(opts.insts));

    TablePrinter tp;
    tp.addHeader({"predictor", "mispredict rate", "storage (KB)"});
    for (auto &e : preds) {
        tp.addRow({e.name,
                   TablePrinter::pct(double(e.mispredicts) /
                                     double(branches)),
                   TablePrinter::fmt(
                       double(e.pred->storageBits()) / 8192.0, 1)});
    }
    std::printf("%s", tp.render().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("predictor_playground", [&] { return run(argc, argv); });
}
