/**
 * @file
 * The `synth` workload family: the original structured-region
 * generator (workload/synth.cc) behind the SPEC-like suite, exposed
 * through the workload registry. The spec surface covers the knobs
 * that matter to fetch behaviour; `preset` starts from one of the
 * eleven suite members' parameters so e.g. `synth:preset=gcc,seed=7`
 * is "gcc with a different input set". Fractional knobs are scaled
 * integers (pct = percent, pml = per-mille) so spec strings
 * round-trip exactly.
 */

#include "workload/families/common.hh"
#include "workload/suite.hh"

namespace sfetch
{
namespace
{

/**
 * Every knob defaults to -1 = "keep the preset's (or base) value".
 * A plain "declared default means unset" scheme would not survive
 * canonicalization: `synth:preset=gzip,seed=1` must override gzip's
 * seed even though 1 is the base seed, and the canonical spec text
 * only keeps values that differ from the declared default.
 */
constexpr std::int64_t kInherit = -1;

/** Assigned-value floors the ParamSpec min (= kInherit) can't hold. */
const std::pair<const char *, std::int64_t> kSynthFloors[] = {
    {"seed", 0},        {"leaf_funcs", 1}, {"mid_funcs", 0},
    {"top_funcs", 1},   {"mean_trips", 2}, {"outer_trips", 2},
    {"loop_pct", 0},    {"call_pct", 0},   {"switch_pml", 0},
    {"corr_pct", 0},    {"phased_pct", 0}, {"strong_bias_pct", 0},
    {"noise_pml", 0},   {"ws_kb", 1},
};

void
validateSynth(const ParamSet &ps)
{
    const std::string &preset = ps.getString("preset");
    if (!preset.empty())
        suiteParams(preset); // throws on unknown presets
    for (const auto &[key, floor] : kSynthFloors) {
        std::int64_t v = ps.getInt(key);
        if (v != kInherit && v < floor)
            throw std::invalid_argument(
                std::string("parameter '") + key + "' must be >= " +
                std::to_string(floor) + ", got " +
                std::to_string(v));
    }
}

SyntheticWorkload
buildSynth(const ParamSet &ps)
{
    validateSynth(ps);
    const std::string &preset = ps.getString("preset");
    WorkloadParams p;
    if (!preset.empty())
        p = suiteParams(preset);
    p.name = family::specName("synth", ps);

    // Assigned knobs override the preset (or base) value.
    auto ovrInt = [&](const char *key, auto &field) {
        std::int64_t v = ps.getInt(key);
        if (v != kInherit)
            field = static_cast<std::decay_t<decltype(field)>>(v);
    };
    auto ovrFrac = [&](const char *key, double &field, double scale) {
        std::int64_t v = ps.getInt(key);
        if (v != kInherit)
            field = double(v) / scale;
    };
    ovrInt("seed", p.seed);
    ovrInt("leaf_funcs", p.numLeafFuncs);
    ovrInt("mid_funcs", p.numMidFuncs);
    ovrInt("top_funcs", p.numTopFuncs);
    ovrInt("mean_trips", p.meanTrips);
    ovrInt("outer_trips", p.outerTrips);
    ovrFrac("loop_pct", p.loopProb, 100.0);
    ovrFrac("call_pct", p.callProb, 100.0);
    ovrFrac("switch_pml", p.switchProb, 1000.0);
    ovrFrac("corr_pct", p.corrFraction, 100.0);
    ovrFrac("phased_pct", p.phasedFraction, 100.0);
    ovrFrac("strong_bias_pct", p.strongBiasFrac, 100.0);
    ovrFrac("noise_pml", p.noise, 1000.0);
    std::int64_t ws = ps.getInt("ws_kb");
    if (ws != kInherit)
        p.data.workingSetBytes = static_cast<Addr>(ws) << 10;
    return generateWorkload(p);
}

} // namespace

void
detail::registerSynthFamily(WorkloadRegistry &reg)
{
    WorkloadDescriptor d;
    d.token = "synth";
    d.displayName = "Structured-region generator";
    d.summary =
        "the generator behind the SPEC-like suite: functions built "
        "from loops, hammocks, calls and switches";
    d.aliases = {"generic"};
    // -1 = inherit the preset's (or, without a preset, the base
    // generator's) value; the base values are noted per knob.
    d.params
        .stringParam("preset", "",
                     "start from this suite member's parameters "
                     "(gzip, vpr, gcc, ...)")
        .intParam("seed", kInherit,
                  "workload generation seed (base 1)", kInherit)
        .intParam("leaf_funcs", kInherit,
                  "functions that call nothing (base 10)", kInherit)
        .intParam("mid_funcs", kInherit,
                  "functions calling leaves (base 6)", kInherit)
        .intParam("top_funcs", kInherit,
                  "phase drivers called from main (base 3)", kInherit)
        .intParam("mean_trips", kInherit,
                  "mean loop trip count (base 10)", kInherit)
        .intParam("outer_trips", kInherit,
                  "main driver loop trip count (base 400)", kInherit)
        .intParam("loop_pct", kInherit,
                  "loop region probability, % (base 22)", kInherit)
        .intParam("call_pct", kInherit,
                  "call region probability, % (base 16)", kInherit)
        .intParam("switch_pml", kInherit,
                  "indirect-switch region probability, per-mille "
                  "(base 15)", kInherit)
        .intParam("corr_pct", kInherit,
                  "history-correlated hammock fraction, % (base 25)",
                  kInherit)
        .intParam("phased_pct", kInherit,
                  "phase-stable hammock fraction, % (base 55)",
                  kInherit)
        .intParam("strong_bias_pct", kInherit,
                  "hammocks biased past 97%, % (base 70)", kInherit)
        .intParam("noise_pml", kInherit,
                  "correlated-branch noise floor, per-mille "
                  "(base 30)", kInherit)
        .intParam("ws_kb", kInherit,
                  "data working set, KiB (base 1024)", kInherit,
                  family::kMaxWsKb);
    d.validate = validateSynth;
    d.factory = buildSynth;
    reg.add(std::move(d));
}

} // namespace sfetch
