/**
 * @file
 * google-benchmark microbenchmarks of the predictor structures: the
 * per-lookup cost of the direction predictors, the next stream
 * predictor, the BTB, and the DOLC hash, plus simulator throughput.
 */

#include <benchmark/benchmark.h>

#include "bpred/btb.hh"
#include "bpred/gskew.hh"
#include "bpred/perceptron.hh"
#include "core/stream_engine.hh"
#include "sim/cli.hh"
#include "sim/engine_registry.hh"
#include "sim/experiment.hh"
#include "sim/workload_cache.hh"
#include "util/dolc.hh"
#include "util/rng.hh"

using namespace sfetch;

static void
BM_GskewPredictUpdate(benchmark::State &state)
{
    GskewPredictor pred;
    Pcg32 rng(1);
    std::uint64_t hist = 0;
    for (auto _ : state) {
        Addr pc = 0x1000 + (rng.next() & 0xFFF) * 4;
        bool t = rng.nextBool(0.6);
        bool p = pred.predict(pc, hist);
        benchmark::DoNotOptimize(p);
        pred.update(pc, hist, t);
        hist = (hist << 1) | t;
    }
}
BENCHMARK(BM_GskewPredictUpdate);

static void
BM_PerceptronPredictUpdate(benchmark::State &state)
{
    PerceptronPredictor pred;
    Pcg32 rng(2);
    std::uint64_t hist = 0;
    for (auto _ : state) {
        Addr pc = 0x1000 + (rng.next() & 0xFFF) * 4;
        bool t = rng.nextBool(0.6);
        bool p = pred.predict(pc, hist);
        benchmark::DoNotOptimize(p);
        pred.update(pc, hist, t);
        hist = (hist << 1) | t;
    }
}
BENCHMARK(BM_PerceptronPredictUpdate);

static void
BM_NspPredictCommit(benchmark::State &state)
{
    NextStreamPredictor nsp;
    Pcg32 rng(3);
    for (auto _ : state) {
        Addr start = 0x1000 + (rng.next() & 0x3FF) * 16;
        StreamPrediction p = nsp.predict(start);
        benchmark::DoNotOptimize(p);
        StreamDescriptor s;
        s.start = start;
        s.lenInsts = 8 + (rng.next() & 15);
        s.endType = BranchType::CondDirect;
        s.next = 0x1000 + (rng.next() & 0x3FF) * 16;
        nsp.commitStream(s, false);
        nsp.specPush(start);
    }
}
BENCHMARK(BM_NspPredictCommit);

static void
BM_BtbLookupUpdate(benchmark::State &state)
{
    Btb btb;
    Pcg32 rng(4);
    for (auto _ : state) {
        Addr pc = 0x1000 + (rng.next() & 0xFFF) * 4;
        benchmark::DoNotOptimize(btb.lookup(pc));
        btb.update(pc, pc + 64, BranchType::Jump);
    }
}
BENCHMARK(BM_BtbLookupUpdate);

static void
BM_DolcIndex(benchmark::State &state)
{
    DolcHistory h(DolcSpec{12, 2, 4, 10});
    for (Addr p = 0; p < 12 * 4; p += 4)
        h.push(0x4000 + p * 13);
    Addr cur = 0x8000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.index(cur, 11));
        cur += 4;
    }
}
BENCHMARK(BM_DolcIndex);

static void
BM_SimulatorThroughput(benchmark::State &state)
{
    // Whole-pipeline simulation speed in committed instructions/s,
    // one benchmark instance per registered engine.
    const std::vector<std::string> tokens =
        EngineRegistry::instance().tokens();
    const PlacedWorkload &work = WorkloadCache::instance().get("gzip");
    for (auto _ : state) {
        SimConfig cfg(tokens.at(
            static_cast<std::size_t>(state.range(0))));
        cfg.width = 8;
        cfg.insts = 100'000;
        cfg.warmupInsts = 0;
        SimStats st = runOn(work, cfg);
        benchmark::DoNotOptimize(st.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 100'000);
}
BENCHMARK(BM_SimulatorThroughput)
    ->DenseRange(
        0, static_cast<std::int64_t>(
               EngineRegistry::instance().size()) - 1)
    ->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    return runMain("micro_predictors", [&] {
        benchmark::Initialize(&argc, argv);
        if (benchmark::ReportUnrecognizedArguments(argc, argv))
            return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
        return 0;
    });
}
