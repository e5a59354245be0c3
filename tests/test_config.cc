/**
 * @file
 * Tests for the configuration subsystem: ParamSpec/ParamSet typing
 * and diagnostics, spec-string and JSON round-trips, the engine
 * registry (tokens, aliases, --list-archs content), and the ablation
 * specs: each runs and changes the simulation it parameterizes.
 */

#include <gtest/gtest.h>

#include "fetch/seq.hh"
#include "sim/cli.hh"
#include "sim/config.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "sim/workload_cache.hh"

using namespace sfetch;

// ---- ParamSpec / ParamSet ----

namespace
{

const ParamSpec &
testSpec()
{
    static const ParamSpec spec = [] {
        ParamSpec s;
        s.intParam("depth", 4, "queue depth", 1)
            .boolParam("fancy", false, "enable the fancy path")
            .stringParam("tag", "none", "free-form label");
        return s;
    }();
    return spec;
}

} // namespace

TEST(ParamSet, DefaultsAndTypedAccess)
{
    ParamSet p(&testSpec());
    EXPECT_EQ(p.getInt("depth"), 4);
    EXPECT_FALSE(p.getBool("fancy"));
    EXPECT_EQ(p.getString("tag"), "none");
    EXPECT_TRUE(p.isDefault("depth"));

    p.setInt("depth", 8);
    p.setBool("fancy", true);
    p.setString("tag", "x");
    EXPECT_EQ(p.getInt("depth"), 8);
    EXPECT_TRUE(p.getBool("fancy"));
    EXPECT_EQ(p.getString("tag"), "x");
    EXPECT_FALSE(p.isDefault("depth"));
}

TEST(ParamSet, UnknownKeyDiagnosticListsKnownKeys)
{
    ParamSet p(&testSpec());
    try {
        p.setInt("depht", 8);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("depht"), std::string::npos);
        EXPECT_NE(msg.find("depth"), std::string::npos);
        EXPECT_NE(msg.find("fancy"), std::string::npos);
    }
    EXPECT_THROW(p.getInt("nope"), std::invalid_argument);
}

TEST(ParamSet, TypeMismatchAndBadTextAreErrors)
{
    ParamSet p(&testSpec());
    EXPECT_THROW(p.getBool("depth"), std::invalid_argument);
    EXPECT_THROW(p.setInt("fancy", 1), std::invalid_argument);
    EXPECT_THROW(p.set("depth", "abc"), std::invalid_argument);
    EXPECT_THROW(p.set("fancy", "maybe"), std::invalid_argument);
    EXPECT_THROW(p.setInt("depth", 0), std::invalid_argument)
        << "below the declared minimum";
}

TEST(ParamSet, IntBoundsAreEnforcedWithTheRangeDiagnostic)
{
    ParamSpec spec;
    spec.intParam("kb", 8, "size, KiB", 1, 64);
    ParamSet p(&spec);
    p.setInt("kb", 64);
    EXPECT_EQ(p.getInt("kb"), 64);
    try {
        p.setInt("kb", 65);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "parameter 'kb' must be <= 64, got 65");
    }
    EXPECT_EQ(p.getInt("kb"), 64) << "a refused value is not stored";
}

// strtoll saturates an out-of-range integer to INT64_MAX with ERANGE;
// it used to be read as that value (`ftq=99999999999999999999` then
// asked for an unallocatable queue). It is refused by its text.
TEST(ParamSet, OutOfRangeIntegerTextIsRefusedNotSaturated)
{
    ParamSet p(&testSpec());
    for (const char *text :
         {"99999999999999999999", "-99999999999999999999"}) {
        try {
            p.set("depth", text);
            FAIL() << "expected std::invalid_argument for " << text;
        } catch (const std::invalid_argument &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("parameter 'depth' expects an "
                                  "integer, got '") + text + "'");
        }
    }
    EXPECT_TRUE(p.isDefault("depth"));
    ParamSpec wide;
    wide.intParam("seed", 1, "a seed", 0, INT64_MAX);
    ParamSet q(&wide);
    q.set("seed", "9223372036854775807");
    EXPECT_EQ(q.getInt("seed"), INT64_MAX) << "INT64_MAX itself parses";
}

// ws_kb = 2^54 KiB shifted to 0 bytes and divided by zero in the
// data-address stream: every family now caps the working set at
// 1 GiB, which also keeps each data address within the u32 offset
// the committed-path decoder stores.
TEST(ParamSet, WorkingSetIsCappedInEveryFamily)
{
    for (const char *family :
         {"loops", "phased", "server", "thrash", "synth"}) {
        const std::string over =
            std::string(family) + ":ws_kb=18014398509481984";
        try {
            canonicalBenchSpec(over);
            ADD_FAILURE() << over << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "parameter 'ws_kb' must be <= 1048576, got "
                          "18014398509481984"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_THROW(canonicalBenchSpec(std::string(family) +
                                        ":ws_kb=1048577"),
                     std::invalid_argument)
            << family;
        EXPECT_NO_THROW(canonicalBenchSpec(std::string(family) +
                                           ":ws_kb=1048576"))
            << family;
    }

    // The largest working set decodes: its addresses fit the offset.
    const PlacedWorkload &work =
        WorkloadCache::instance().get("loops:ws_kb=1048576");
    EXPECT_EQ(work.model().data().workingSetBytes, Addr(1) << 30);
    OracleArena arena(work.image(true), work.model(), kRefSeed, 50'000);
    EXPECT_GT(arena.dataCount(), 0u);
    SimConfig cfg("stream");
    cfg.insts = 20'000;
    cfg.warmupInsts = 0;
    EXPECT_GT(runOn(work, cfg).committedInsts, 0u);
}

TEST(ParamSet, SpecTextRoundTripIsCanonical)
{
    ParamSet p(&testSpec());
    EXPECT_EQ(p.toSpecText(), "");

    // Any input order; emission is declaration order, non-default
    // values only.
    p.applySpecText("fancy=true,depth=8");
    EXPECT_EQ(p.toSpecText(), "depth=8,fancy=1");

    ParamSet q(&testSpec());
    q.applySpecText(p.toSpecText());
    EXPECT_EQ(p, q);

    // Setting a parameter back to its default drops it again.
    p.set("depth", "4");
    p.set("fancy", "0");
    EXPECT_EQ(p.toSpecText(), "");
}

TEST(ParamSet, JsonEmitsNonDefaultsNatively)
{
    ParamSet p(&testSpec());
    EXPECT_EQ(p.toJson(), "{}");
    p.setInt("depth", 16);
    p.setBool("fancy", true);
    EXPECT_EQ(p.toJson(), "{\"depth\": 16, \"fancy\": true}");
}

// ---- EngineRegistry ----

TEST(EngineRegistry, FiveEnginesWithDocumentedParams)
{
    EngineRegistry &reg = EngineRegistry::instance();
    EXPECT_EQ(reg.size(), 5u);
    EXPECT_EQ(reg.tokens(),
              (std::vector<std::string>{"ev8", "ftb", "stream",
                                        "trace", "seq"}));
    EXPECT_EQ(reg.paperTokens(),
              (std::vector<std::string>{"ev8", "ftb", "stream",
                                        "trace"}));
    for (const std::string &token : reg.tokens()) {
        const EngineDescriptor &d = reg.find(token);
        EXPECT_FALSE(d.displayName.empty()) << token;
        EXPECT_FALSE(d.summary.empty()) << token;
        EXPECT_FALSE(d.params.empty()) << token;
        for (const ParamDecl &decl : d.params.decls())
            EXPECT_FALSE(decl.doc.empty())
                << token << ":" << decl.key;
    }

    // The --list-archs text names every engine and every parameter.
    std::string listing = reg.listText();
    for (const std::string &token : reg.tokens()) {
        EXPECT_NE(listing.find(token), std::string::npos);
        for (const ParamDecl &decl : reg.find(token).params.decls())
            EXPECT_NE(listing.find(decl.key), std::string::npos)
                << token << ":" << decl.key;
    }
}

TEST(EngineRegistry, AliasesResolveToCanonicalDescriptors)
{
    EngineRegistry &reg = EngineRegistry::instance();
    EXPECT_EQ(reg.find("streams").token, "stream");
    EXPECT_EQ(reg.find("tcache").token, "trace");
    EXPECT_EQ(reg.find("nextline").token, "seq");
}

TEST(EngineRegistry, UnknownTokenErrorListsRegisteredEngines)
{
    try {
        EngineRegistry::instance().find("vliw");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(std::string(e.what()),
                  "unknown fetch engine 'vliw' (registered: ev8 ftb stream|streams trace|tcache seq|nextline); see --list-archs");
    }
}

// The whole --list-archs text, byte for byte: the shared `line`
// parameter leads every engine's list, [paper] marks the comparison
// set, and parameter lines keep their column.
TEST(EngineRegistry, ListTextKeepsItsShape)
{
    EXPECT_EQ(EngineRegistry::instance().listText(), R"LIST(registered fetch engines (--arch TOKEN[:key=value,...]):

  ev8  --  EV8+2bcgskew  [paper]
      coupled wide-line front end: 2bcgskew direction predictor, BTB, line predictor, 8-entry RAS (Table 2 baseline)
        line = 0            i-cache line bytes (0 = 4 x pipe width)
        ras = 8             return address stack entries
        btb_entries = 2048  BTB entries
        btb_assoc = 4       BTB associativity
        line_pred = 4096    line predictor entries

  ftb  --  FTB+perceptron  [paper]
      decoupled fetch target buffer front end with perceptron direction prediction and a fetch target queue
        line = 0            i-cache line bytes (0 = 4 x pipe width)
        ftq = 4             fetch target queue entries
        ras = 8             return address stack entries
        ftb_entries = 2048  fetch target buffer entries
        ftb_assoc = 4       fetch target buffer associativity
        max_block = 64      fetch block length cap in instructions

  stream | streams  --  Streams  [paper]
      the paper's stream fetch architecture: cascaded next stream predictor driving a wide-line i-cache through an FTQ
        line = 0            i-cache line bytes (0 = 4 x pipe width)
        ftq = 4             fetch target queue entries
        ras = 8             return address stack entries
        max_stream = 64     predictor stream length cap in instructions
        single_table = 0    ablation: drop the path-indexed second table, all capacity address-indexed (Section 3.2)
        no_hysteresis = 0   ablation: 1-bit hysteresis-free replacement counters (Section 3.2)

  trace | tcache  --  Tcache+Tpred  [paper]
      trace cache with next trace prediction plus a full conventional secondary fetch path (BTB + gshare)
        line = 0            i-cache line bytes (0 = 4 x pipe width)
        ras = 8             return address stack entries
        gshare_entries = 8192 secondary-path gshare table entries
        gshare_hist = 12    secondary-path gshare history bits
        partial_match = 0   serve matching prefixes of same-start resident traces (footnote 3: hurts optimized layouts)

  seq | nextline  --  NextLine
      predictionless next-line sequential fetch; the weakest baseline and the one-file extensibility example
        line = 0            i-cache line bytes (0 = 4 x pipe width)
)LIST");
}

namespace
{

EngineDescriptor
toyEngine(const std::string &token)
{
    EngineDescriptor d;
    d.token = token;
    d.displayName = "Toy";
    d.summary = "registration test engine";
    d.factory = [](const ParamSet &p, const CodeImage &image,
                   MemoryHierarchy *mem) {
        SeqConfig c;
        c.lineBytes = static_cast<unsigned>(p.getInt("line"));
        return std::make_unique<SeqEngine>(c, image, mem);
    };
    return d;
}

} // namespace

TEST(EngineRegistry, AddRefusesClashesAndMissingFactories)
{
    EngineRegistry reg(EngineRegistry::instance().kind());
    reg.add(toyEngine("toy"));
    // The registry declares `line` for every engine.
    ASSERT_NE(reg.find("toy").params.find("line"), nullptr);
    EXPECT_EQ(reg.find("toy").params.decls().front().key, "line");

    EXPECT_THROW(reg.add(toyEngine("toy")), std::logic_error);
    EngineDescriptor alias = toyEngine("toy2");
    alias.aliases = {"toy"};
    EXPECT_THROW(reg.add(alias), std::logic_error);
    alias.aliases = {"toy2"};
    EXPECT_THROW(reg.add(alias), std::logic_error);
    EngineDescriptor no_factory = toyEngine("toy3");
    no_factory.factory = nullptr;
    EXPECT_THROW(reg.add(no_factory), std::logic_error);
    EngineDescriptor own_line = toyEngine("toy4");
    own_line.params.intParam("line", 0, "a second line");
    EXPECT_THROW(reg.add(own_line), std::logic_error);
    EXPECT_EQ(reg.tokens(), std::vector<std::string>{"toy"});
}

// Every int parameter used to accept any int64: values past the
// u32/unsigned its factory narrows to were silently wrapped (to 0:
// a hang or a crash) and INT64_MAX-sized tables aborted the process.
TEST(EngineRegistry, EveryIntParameterRefusesValuesPastItsType)
{
    for (const std::string &token : EngineRegistry::instance().tokens())
        for (const ParamDecl &d :
             EngineRegistry::instance().find(token).params.decls()) {
            if (d.type != ParamType::Int)
                continue;
            for (const char *v : {"4294967296", "9223372036854775807"}) {
                const std::string spec = token + ":" + d.key + "=" + v;
                EXPECT_THROW(SimConfig::fromSpec(spec),
                             std::invalid_argument)
                    << spec;
            }
        }
}

// ---- SimConfig ----

TEST(SimConfig, SpecRoundTripAndAliases)
{
    SimConfig cfg = SimConfig::fromSpec(
        "streams:single_table=1,ftq=8");
    EXPECT_EQ(cfg.arch(), "stream");
    EXPECT_EQ(cfg.params().getInt("ftq"), 8);
    EXPECT_TRUE(cfg.params().getBool("single_table"));
    // Canonical form: registry token, declaration order.
    EXPECT_EQ(cfg.specText(), "stream:ftq=8,single_table=1");
    EXPECT_EQ(SimConfig::fromSpec(cfg.specText()), cfg);

    EXPECT_EQ(SimConfig::fromSpec("ev8").specText(), "ev8");
    EXPECT_EQ(SimConfig::fromSpec("tcache").arch(), "trace");
}

TEST(SimConfig, BadSpecsThrow)
{
    EXPECT_THROW(SimConfig::fromSpec("nope"), std::invalid_argument);
    EXPECT_THROW(SimConfig::fromSpec("stream:bogus=1"),
                 std::invalid_argument);
    EXPECT_THROW(SimConfig::fromSpec("stream:ftq=abc"),
                 std::invalid_argument);
    EXPECT_THROW(SimConfig::fromSpec("stream:ftq"),
                 std::invalid_argument);
    // Bad line overrides fail at parse time, not mid-sweep.
    EXPECT_THROW(SimConfig::fromSpec("stream:line=100"),
                 std::invalid_argument);
}

TEST(SimConfig, LineBytesResolvesPerWidth)
{
    SimConfig cfg("stream");
    cfg.width = 4;
    EXPECT_EQ(cfg.lineBytes(), defaultLineBytes(4));
    cfg.params().setInt("line", 32);
    EXPECT_EQ(cfg.lineBytes(), 32u);
    cfg.params().setInt("line", 48); // not a power of two
    EXPECT_THROW(cfg.lineBytes(), std::invalid_argument);
}

TEST(SimConfig, ArchSpecListSplitsOnEngineBoundaries)
{
    std::vector<SimConfig> cfgs =
        parseArchSpecList("ev8,stream:ftq=8,single_table=1,seq");
    ASSERT_EQ(cfgs.size(), 3u);
    EXPECT_EQ(cfgs[0].specText(), "ev8");
    EXPECT_EQ(cfgs[1].specText(), "stream:ftq=8,single_table=1");
    EXPECT_EQ(cfgs[2].specText(), "seq");
    EXPECT_THROW(parseArchSpecList(""), std::invalid_argument);
}

TEST(SimConfig, PaperConfigsAreThePaperEngines)
{
    std::vector<SimConfig> paper = paperArchConfigs();
    const std::vector<std::string> tokens =
        EngineRegistry::instance().paperTokens();
    ASSERT_EQ(paper.size(), tokens.size());
    for (std::size_t i = 0; i < paper.size(); ++i) {
        EXPECT_EQ(paper[i].arch(), tokens[i]);
        EXPECT_EQ(paper[i].label(), paper[i].descriptor().displayName);
    }
}

// ---- ablation specs: each runs and differs from its default ----

namespace
{

SimStats
smallRun(const std::string &spec)
{
    SimConfig cfg = SimConfig::fromSpec(spec);
    cfg.width = 8;
    cfg.insts = 25'000;
    cfg.warmupInsts = 5'000;
    return runOn(WorkloadCache::instance().get("gzip"), cfg);
}

void
expectAblationDiffers(const std::string &spec, const std::string &base)
{
    SimStats ablated = smallRun(spec);
    EXPECT_GE(ablated.committedInsts, 25'000u) << spec;
    EXPECT_NE(ablated, smallRun(base))
        << "'" << spec << "' simulated exactly like '" << base << "'";
}

} // namespace

TEST(Ablations, StreamSingleTable)
{
    expectAblationDiffers("stream:single_table=1", "stream");
}

TEST(Ablations, StreamNoHysteresis)
{
    expectAblationDiffers("stream:no_hysteresis=1", "stream");
}

TEST(Ablations, LineOverride)
{
    expectAblationDiffers("stream:line=64", "stream");
}

// Geometries the model cannot build fail at parse time: a line past
// one L1I way left the cache 0 sets (SIGSEGV), and a BTB with fewer
// entries than ways 0 sets (SIGFPE). The largest line still runs.
TEST(Ablations, UnbuildableGeometriesAreRefusedAtParseTime)
{
    for (const char *spec :
         {"seq:line=65536", "ev8:btb_entries=3", "ev8:btb_assoc=4096",
          "ftb:ftb_assoc=4096", "ev8:line=4",
          "trace:gshare_entries=1000", "trace:gshare_hist=64"})
        EXPECT_THROW(SimConfig::fromSpec(spec), std::invalid_argument)
            << spec;
    EXPECT_GE(smallRun("seq:line=32768").committedInsts, 25'000u);
}

// linePredIndex() masks with the table size, so a line predictor
// that is not a power of two used only some of its slots
// (ev8:line_pred=4095 only the even ones) and ran, misfetching about
// three times as often on gzip as at 4096.
TEST(Ablations, Ev8LinePredictorMustBeAPowerOfTwo)
{
    const char *diag =
        "parameter 'line_pred' must be a power of two, got 4095";
    try {
        SimConfig::fromSpec("ev8:line_pred=4095");
        ADD_FAILURE() << "ev8:line_pred=4095 was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), diag);
    }
    EXPECT_NO_THROW(SimConfig::fromSpec("ev8:line_pred=4096"));

    // sfetchsim's parser refuses it as a usage error: exit 2.
    auto parse = [] {
        CliOptions opts;
        CliParser cli("sfetchsim", "line_pred");
        cli.addStandard(&opts, CliParser::kSweep);
        std::vector<std::string> args{"sfetchsim", "--arch",
                                      "ev8:line_pred=4095"};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        cli.parseOrExit(int(argv.size()), argv.data());
    };
    EXPECT_EXIT(parse(), ::testing::ExitedWithCode(2),
                std::string("sfetchsim: --arch: ") + diag);
}

TEST(Ablations, FtqOverride)
{
    expectAblationDiffers("stream:ftq=8", "stream");
    expectAblationDiffers("ftb:ftq=2", "ftb");
}

TEST(Ablations, TracePartialMatching)
{
    expectAblationDiffers("trace:partial_match=1", "trace");
}

// ---- the seq engine: registered and runnable like any other ----

TEST(SeqEngine, RunsThroughTheStandardHarness)
{
    const PlacedWorkload &work =
        WorkloadCache::instance().get("gzip");
    SimConfig cfg("seq");
    cfg.width = 8;
    cfg.insts = 25'000;
    cfg.warmupInsts = 5'000;
    SimStats st = runOn(work, cfg);
    EXPECT_GE(st.committedInsts, 25'000u);
    EXPECT_GT(st.ipc(), 0.0);
    // With no prediction, every taken branch is a mispredict: far
    // worse than the stream engine on the same workload.
    SimStats ref = runOn(work, SimConfig::fromSpec("stream"));
    (void)ref;
    EXPECT_GT(st.mispredictRate(), 0.01);
}

TEST(SeqEngine, SweepsThroughTheDriverUnchanged)
{
    SweepDriver driver(2);
    driver.setQuiet(true);
    std::vector<SimConfig> cfgs;
    for (const char *spec : {"seq", "stream"}) {
        SimConfig cfg = SimConfig::fromSpec(spec);
        cfg.insts = 20'000;
        cfg.warmupInsts = 4'000;
        cfgs.push_back(cfg);
    }
    ResultSet rs = driver.run(SweepDriver::grid({"gzip"}, cfgs));
    ASSERT_EQ(rs.size(), 2u);
    EXPECT_EQ(rs.at(0).cfg.arch(), "seq");
    // Predictionless fetch is strictly worse.
    EXPECT_LT(rs.at(0).stats.ipc(), rs.at(1).stats.ipc());
}

// ---- serialization of parameterized configs ----

TEST(SimConfigSerialization, CsvQuotesAndRoundTripsSpecs)
{
    SweepDriver driver(2);
    driver.setQuiet(true);
    SimConfig cfg =
        SimConfig::fromSpec("stream:ftq=8,single_table=1");
    cfg.insts = 20'000;
    cfg.warmupInsts = 4'000;
    ResultSet rs = driver.run(SweepDriver::grid({"gzip"}, {cfg}));

    std::string csv = rs.toCsv();
    // The spec contains a comma, so the cell must be quoted.
    EXPECT_NE(csv.find("\"stream:ftq=8,single_table=1\""),
              std::string::npos);

    ResultSet back = ResultSet::fromCsv(csv);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.at(0).cfg, rs.at(0).cfg);

    ResultSet jback = ResultSet::fromJson(rs.toJson());
    ASSERT_EQ(jback.size(), 1u);
    EXPECT_EQ(jback.at(0).cfg, rs.at(0).cfg);
    EXPECT_EQ(jback.at(0).stats, rs.at(0).stats);
}
