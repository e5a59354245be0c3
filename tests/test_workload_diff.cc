/**
 * @file
 * Differential validation of the workload scenario subsystem:
 *
 *  - the workload registry's content and diagnostics (including
 *    negative and fuzz-style coverage of the --bench spec grammar,
 *    mirroring tests/test_config.cc for --arch);
 *  - window invariance: for every registered workload family and
 *    one suite preset, every registered fetch engine at two pipe
 *    widths produces bit-identical SimStats whether its committed
 *    path is generated live into a private window or read from a
 *    shared whole-run arena (the per-instruction front-end checker
 *    in test_properties.cc checks the verify itself over the same
 *    families, and test_golden_stats pins commit and dispatch);
 *  - cross-engine invariants every scenario must satisfy (an
 *    optimized-layout stream front end beats predictionless
 *    next-line fetch);
 *  - the workload-cache canonical-key regression: specs differing
 *    only in workload parameters must never alias one entry.
 */

#include <gtest/gtest.h>

#include <map>

#include "sim/engine_registry.hh"
#include "sim/experiment.hh"
#include "sim/workload_cache.hh"
#include "util/rng.hh"
#include "workload/workload_registry.hh"

using namespace sfetch;

namespace
{

/** Small but non-trivial run: covers warmup, phases, and misses. */
SimConfig
smallCfg(const std::string &arch)
{
    SimConfig cfg(arch);
    cfg.width = 8;
    cfg.insts = 20'000;
    cfg.warmupInsts = 4'000;
    return cfg;
}

/** One representative bench spec per registered family + a preset. */
std::vector<std::string>
diffBenches()
{
    std::vector<std::string> benches =
        WorkloadRegistry::instance().tokens();
    benches.push_back("gzip");
    return benches;
}

} // namespace

// ---- registry content ----

TEST(WorkloadRegistry, FiveFamiliesWithDocumentedParams)
{
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    EXPECT_EQ(reg.size(), 5u);
    EXPECT_EQ(reg.tokens(),
              (std::vector<std::string>{"synth", "loops", "server",
                                        "thrash", "phased"}));
    for (const std::string &token : reg.tokens()) {
        const WorkloadDescriptor &d = reg.find(token);
        EXPECT_FALSE(d.displayName.empty()) << token;
        EXPECT_FALSE(d.summary.empty()) << token;
        EXPECT_FALSE(d.params.empty()) << token;
        EXPECT_NE(d.params.find("seed"), nullptr) << token;
        for (const ParamDecl &decl : d.params.decls())
            EXPECT_FALSE(decl.doc.empty()) << token << ":" << decl.key;
    }

    // The --list-benches text names every family, every parameter,
    // and the suite presets.
    std::string listing = reg.listText();
    for (const std::string &token : reg.tokens()) {
        EXPECT_NE(listing.find(token), std::string::npos);
        for (const ParamDecl &decl : reg.find(token).params.decls())
            EXPECT_NE(listing.find(decl.key), std::string::npos)
                << token << ":" << decl.key;
    }
    for (const std::string &name : suiteNames())
        EXPECT_NE(listing.find(name), std::string::npos) << name;
}

TEST(WorkloadRegistry, AliasesResolveToCanonicalDescriptors)
{
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    EXPECT_EQ(reg.find("loop_nest").token, "loops");
    EXPECT_EQ(reg.find("calls").token, "server");
    EXPECT_EQ(reg.find("icache").token, "thrash");
    EXPECT_EQ(reg.find("multiphase").token, "phased");
    EXPECT_EQ(reg.find("generic").token, "synth");
}

TEST(WorkloadRegistry, UnknownTokenErrorListsBothNamespaces)
{
    try {
        WorkloadRegistry::instance().find("quake");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        // Suite presets are the other half of the bench namespace.
        EXPECT_EQ(std::string(e.what()),
                  "unknown workload 'quake' (families: synth|generic loops|loop_nest server|calls thrash|icache phased|multiphase; suite presets: gzip vpr gcc crafty parser eon perlbmk gap vortex bzip2 twolf); see --list-benches");
    }
}

// The whole --list-benches text, byte for byte, suite-preset trailer
// included.
TEST(WorkloadRegistry, ListTextKeepsItsShape)
{
    EXPECT_EQ(WorkloadRegistry::instance().listText(),
              R"LIST(registered workload families (--bench FAMILY[:key=value,...]):

  synth | generic  --  Structured-region generator
      the generator behind the SPEC-like suite: functions built from loops, hammocks, calls and switches
        preset =            start from this suite member's parameters (gzip, vpr, gcc, ...)
        seed = -1           workload generation seed (base 1)
        leaf_funcs = -1     functions that call nothing (base 10)
        mid_funcs = -1      functions calling leaves (base 6)
        top_funcs = -1      phase drivers called from main (base 3)
        mean_trips = -1     mean loop trip count (base 10)
        outer_trips = -1    main driver loop trip count (base 400)
        loop_pct = -1       loop region probability, % (base 22)
        call_pct = -1       call region probability, % (base 16)
        switch_pml = -1     indirect-switch region probability, per-mille (base 15)
        corr_pct = -1       history-correlated hammock fraction, % (base 25)
        phased_pct = -1     phase-stable hammock fraction, % (base 55)
        strong_bias_pct = -1 hammocks biased past 97%, % (base 70)
        noise_pml = -1      correlated-branch noise floor, per-mille (base 30)
        ws_kb = -1          data working set, KiB (base 1024)

  loops | loop_nest  --  Loop-nest kernels
      numeric-kernel code: perfect loop nests with deterministic trip counts and a tiny branch footprint
        seed = 1            workload generation seed
        kernels = 4         independent loop-nest functions
        depth = 3           loop nesting depth per kernel
        trips = 16          innermost mean trip count
        body_blocks = 2     straight-line blocks in the innermost body
        block_insts = 6     instructions per body block
        hammock_pct = 30    innermost bodies guarded by a biased hammock, %
        outer_trips = 200   main driver loop trip count
        ws_kb = 256         data working set, KiB

  server | calls  --  Call-heavy server code
      request-dispatch loop: an indirect jump into handlers that fan out over deep chains of tiny helper functions
        seed = 1            workload generation seed
        handlers = 12       handler routines behind the dispatch jump
        helpers = 24        shared helper-function pool
        depth = 4           helper call-chain depth
        block_insts = 4     instructions per block
        requests = 300      dispatch-loop trips per outer activation
        dispatch_corr_pct = 70 history-correlated dispatch selections, %
        noise_pml = 40      helper-branch noise floor, per-mille
        ws_kb = 2048        data working set, KiB

  thrash | icache  --  I-cache thrasher
      round-robin walk over a code footprint far past the L1I: perfectly predictable branches, pathological misses
        seed = 1            workload generation seed
        funcs = 288         straight-line functions visited round-robin
        blocks_per_func = 12 fallthrough blocks per function
        block_insts = 10    instructions per block
        outer_trips = 100   main driver loop trip count
        ws_kb = 512         data working set, KiB

  phased | multiphase  --  Multi-phase behaviour
      phase drivers with distinct branch character plus a shared kernel whose branches flip bias between phases
        seed = 1            workload generation seed
        phases = 3          phase-driver functions
        phase_len = 400     inner-loop trips per phase activation
        block_insts = 5     instructions per block
        noise_pml = 30      correlated-branch noise floor, per-mille
        outer_trips = 150   main driver loop trip count
        ws_kb = 1024        data working set, KiB

suite presets (bare names; the paper's Figure 9 benchmarks):
  gzip vpr gcc crafty parser eon perlbmk gap vortex bzip2 twolf
)LIST");
}

TEST(WorkloadRegistry, AddRefusesClashesPresetsAndMissingFactories)
{
    WorkloadRegistry reg(WorkloadRegistry::instance().kind());
    auto toy = [](const std::string &token) {
        WorkloadDescriptor d;
        d.token = token;
        d.params.intParam("seed", 1, "workload generation seed");
        d.factory = [](const ParamSet &) {
            return generateWorkload(suiteParams("gzip"));
        };
        return d;
    };
    reg.add(toy("toy"));
    EXPECT_THROW(reg.add(toy("toy")), std::logic_error);
    WorkloadDescriptor alias = toy("toy2");
    alias.aliases = {"toy"};
    EXPECT_THROW(reg.add(alias), std::logic_error);
    // Suite preset names are reserved: neither token nor alias.
    alias.aliases = {"gzip"};
    EXPECT_THROW(reg.add(alias), std::logic_error);
    EXPECT_THROW(reg.add(toy("vpr")), std::logic_error);
    WorkloadDescriptor no_factory = toy("toy3");
    no_factory.factory = nullptr;
    EXPECT_THROW(reg.add(no_factory), std::logic_error);
    EXPECT_EQ(reg.tokens(), std::vector<std::string>{"toy"});
}

// Values past the unsigned/u32 a family narrows to used to wrap
// (`loops:depth=4294967296` built depth 0, `server:depth=2^32` divided
// by zero): every int knob but the u64 seed now has a declared cap.
TEST(WorkloadRegistry, EveryIntParameterRefusesValuesPastItsType)
{
    for (const std::string &token :
         WorkloadRegistry::instance().tokens())
        for (const ParamDecl &d :
             WorkloadRegistry::instance().find(token).params.decls()) {
            if (d.type != ParamType::Int || d.key == "seed")
                continue;
            for (const char *v : {"4294967296", "9223372036854775807"}) {
                const std::string spec = token + ":" + d.key + "=" + v;
                EXPECT_THROW(canonicalBenchSpec(spec),
                             std::invalid_argument)
                    << spec;
            }
        }
}

// ---- --bench spec grammar: canonicalization and diagnostics ----

TEST(BenchSpec, CanonicalizationNormalizesOrderAndAliases)
{
    EXPECT_EQ(canonicalBenchSpec("gzip"), "gzip");
    EXPECT_EQ(canonicalBenchSpec("loops"), "loops");
    EXPECT_EQ(canonicalBenchSpec("loop_nest:trips=32,depth=4"),
              "loops:depth=4,trips=32");
    // Explicitly setting a default value drops it.
    EXPECT_EQ(canonicalBenchSpec("loops:trips=16"), "loops");
    // Round trip: canonical text is a fixed point.
    std::string canon =
        canonicalBenchSpec("server:handlers=32,seed=9");
    EXPECT_EQ(canonicalBenchSpec(canon), canon);
}

TEST(BenchSpec, ListSplitsOnFamilyBoundaries)
{
    std::vector<std::string> specs =
        parseBenchSpecList("gzip,loops:depth=2,trips=8,server");
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0], "gzip");
    EXPECT_EQ(specs[1], "loops:depth=2,trips=8");
    EXPECT_EQ(specs[2], "server");
    EXPECT_EQ(parseBenchSpecList("all"),
              std::vector<std::string>{"all"});
    EXPECT_THROW(parseBenchSpecList(""), std::invalid_argument);
}

TEST(BenchSpec, BadSpecsThrowWithDiagnostics)
{
    // Unknown family.
    EXPECT_THROW(canonicalBenchSpec("nope"), std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("nope:seed=1"),
                 std::invalid_argument);
    // Suite presets take no parameter list; the error points at the
    // synth:preset= spelling instead of claiming gzip is unknown.
    try {
        canonicalBenchSpec("gzip:seed=2");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("takes no parameters"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("synth:preset=gzip,seed=2"),
                  std::string::npos)
            << msg;
    }
    // Unknown key, with the known keys in the message.
    try {
        canonicalBenchSpec("loops:depht=3");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("depht"), std::string::npos);
        EXPECT_NE(msg.find("depth"), std::string::npos);
        EXPECT_NE(msg.find("trips"), std::string::npos);
    }
    // Out-of-range and unparseable values.
    EXPECT_THROW(canonicalBenchSpec("loops:depth=0"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("loops:trips=1"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("loops:trips=abc"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("loops:trips"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("loops:=4"),
                 std::invalid_argument);
    // Family-specific constraints fail at parse time: unknown synth
    // presets and assigned values below a knob's floor (the declared
    // default is the -1 inherit sentinel, so the ParamSpec min alone
    // cannot catch these).
    EXPECT_THROW(canonicalBenchSpec("synth:preset=quake"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("synth:mean_trips=1"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("synth:leaf_funcs=0"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("synth:ws_kb=0"),
                 std::invalid_argument);
}

TEST(BenchSpec, SynthPresetOverridesApplyEvenAtBaseValues)
{
    // `preset=gzip,seed=1` must run gzip's program with seed 1, not
    // silently keep gzip's own seed (101): knob defaults are an
    // inherit sentinel precisely so explicit assignments survive
    // canonicalization.
    EXPECT_EQ(canonicalBenchSpec("synth:preset=gzip,seed=1"),
              "synth:preset=gzip,seed=1");

    auto shape = [](const SyntheticWorkload &w) {
        std::vector<std::uint32_t> sizes;
        for (const BasicBlock &blk : w.program.blocks())
            sizes.push_back(blk.numInsts);
        return sizes;
    };
    SyntheticWorkload base = buildBenchWorkload("gzip");
    SyntheticWorkload reseeded =
        buildBenchWorkload("synth:preset=gzip,seed=1");
    SyntheticWorkload inherited =
        buildBenchWorkload("synth:preset=gzip");
    // Inheriting the preset reproduces gzip's program exactly; the
    // seed-1 override must generate a different one.
    EXPECT_EQ(shape(inherited), shape(base));
    EXPECT_NE(shape(reseeded), shape(base));
    // A non-seed knob assigned its base value survives
    // canonicalization too (it would previously vanish).
    EXPECT_EQ(canonicalBenchSpec("synth:preset=gzip,mean_trips=10"),
              "synth:preset=gzip,mean_trips=10");
}

TEST(BenchSpec, FuzzedSpecsEitherCanonicalizeOrThrow)
{
    // Pseudo-random spec strings assembled from plausible fragments:
    // every outcome must be a clean canonicalization (with a stable
    // round trip) or std::invalid_argument — never a crash or an
    // unexpected exception type.
    const char *frags[] = {
        "loops", "server", "gzip", "bogus", "depth", "trips",
        "seed", "=", ":", ",", "4", "0", "-3", "abc", "all",
        "synth", "preset", "99999999999999999999", "=:", "::",
    };
    constexpr std::size_t kNumFrags =
        sizeof(frags) / sizeof(frags[0]);
    Pcg32 rng(mix64(0xf022edULL), 1);
    int accepted = 0;
    for (int i = 0; i < 2000; ++i) {
        std::string spec;
        unsigned pieces = 1 + rng.nextBounded(5);
        for (unsigned p = 0; p < pieces; ++p)
            spec += frags[rng.nextBounded(
                static_cast<std::uint32_t>(kNumFrags))];
        try {
            std::string canon = canonicalBenchSpec(spec);
            EXPECT_EQ(canonicalBenchSpec(canon), canon)
                << "unstable canonicalization of '" << spec << "'";
            ++accepted;
        } catch (const std::invalid_argument &) {
            // Expected for garbage input.
        }
    }
    // The fragment pool contains whole valid specs, so some inputs
    // must get through — otherwise the fuzz is vacuous.
    EXPECT_GT(accepted, 0);
}

// ---- the window invariance suite ----

TEST(WorkloadDiff, CommittedPathSourceIsInvisibleEverywhere)
{
    // A run long enough to cross many refills of the private window.
    constexpr InstCount insts = 100'000, warmup = 10'000;
    static_assert(insts > 6 * Processor::kOracleWindowInsts,
                  "the run must cross many window refills");
    const std::vector<std::string> engines =
        EngineRegistry::instance().tokens();

    for (const std::string &bench : diffBenches()) {
        const PlacedWorkload &work =
            WorkloadCache::instance().get(bench);
        auto arena =
            work.arena(true, insts + warmup + kFetchAheadMargin);

        for (const std::string &arch : engines) {
            for (unsigned width : {4u, 8u}) {
                SimConfig cfg = smallCfg(arch);
                cfg.width = width;
                cfg.insts = insts;
                cfg.warmupInsts = warmup;
                const std::string what = bench + " x " + arch + " w" +
                                         std::to_string(width);

                EXPECT_EQ(runOn(work, cfg), runOn(work, cfg, arena.get()))
                    << what << ": shared arena diverged";
            }
        }
    }
}

TEST(WorkloadDiff, ExactInstStopCommitsExactlyTheBudget)
{
    // exactInstStop caps commit at the instruction budget: where the
    // default run overshoots by up to width-1 (the whole final
    // commit cycle retires), the exact stop reports committedInsts
    // equal to the budget — on every engine, so the bench's Minsts/s
    // denominators are comparable across rows. The checker suite in
    // test_properties.cc checks the exact-stop runs' front end.
    RunTuning exact;
    exact.exactInstStop = true;
    const PlacedWorkload &work = WorkloadCache::instance().get("gzip");

    for (const std::string &arch :
         EngineRegistry::instance().tokens()) {
        SimConfig cfg = smallCfg(arch);
        SimStats loose = runOn(work, cfg);
        SimStats tight = runOn(work, cfg, nullptr, exact);
        EXPECT_GE(loose.committedInsts, cfg.insts) << arch;
        EXPECT_LT(loose.committedInsts, cfg.insts + cfg.width)
            << arch;
        EXPECT_EQ(tight.committedInsts, cfg.insts) << arch;
    }
}

TEST(WorkloadDiff, StreamBeatsNextLineOnEveryFamily)
{
    // The paper's core ordering, demanded of every scenario: a
    // stream front end over the optimized layout must outfetch
    // predictionless next-line fetch.
    for (const std::string &bench : diffBenches()) {
        const PlacedWorkload &work =
            WorkloadCache::instance().get(bench);
        SimStats stream = runOn(work, smallCfg("stream"));
        SimStats seq = runOn(work, smallCfg("seq"));
        EXPECT_GT(stream.ipc(), seq.ipc()) << bench;
        EXPECT_LT(stream.mispredictRate(), seq.mispredictRate())
            << bench;
    }
}

TEST(WorkloadDiff, RunningPastTheCommittedPathThrows)
{
    const PlacedWorkload &work = WorkloadCache::instance().get("loops");
    SimConfig cfg = smallCfg("stream");

    OracleArena short_arena(work.image(cfg.optimizedLayout),
                            work.model(), kRefSeed, 1'000);
    try {
        runOn(work, cfg, &short_arena);
        ADD_FAILURE() << "a run past the arena's end completed";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "the shared arena ends there"),
                  std::string::npos)
            << e.what();
    }
}

// ---- workload cache canonical keys (aliasing regression) ----

TEST(WorkloadCacheKeys, ParamsDistinguishAndCanonicalFormsShare)
{
    WorkloadCache &cache = WorkloadCache::instance();

    // Same parameters, different spellings: one entry.
    const PlacedWorkload &a = cache.get("loops:depth=2,trips=8");
    const PlacedWorkload &b = cache.get("loops:trips=8,depth=2");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.name(), "loops:depth=2,trips=8");

    // A default-valued parameter canonicalizes away.
    const PlacedWorkload &c = cache.get("loops");
    const PlacedWorkload &d = cache.get("loops:trips=16");
    EXPECT_EQ(&c, &d);

    // Different workload parameters must never alias.
    const PlacedWorkload &e = cache.get("loops:trips=8");
    EXPECT_NE(&c, &e);
    EXPECT_NE(&a, &e);
    EXPECT_NE(a.program().numBlocks(), 0u);

    // And the generated programs really differ.
    SimStats se = runOn(c, smallCfg("stream"));
    SimStats sf = runOn(e, smallCfg("stream"));
    EXPECT_NE(se, sf);
}
