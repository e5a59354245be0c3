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

/**
 * The integer knobs in declaration order. All default to kInherit,
 * which is also each ParamSpec min; `floor` is the assigned-value
 * floor that min cannot hold. Docs note the base generator's value.
 */
struct SynthKnob
{
    const char *key;
    const char *doc;
    std::int64_t floor;
    std::int64_t max;
};

const SynthKnob kSynthKnobs[] = {
    {"seed", "workload generation seed (base 1)", 0, INT64_MAX},
    {"leaf_funcs", "functions that call nothing (base 10)", 1, kMaxIntParam},
    {"mid_funcs", "functions calling leaves (base 6)", 0, kMaxIntParam},
    {"top_funcs", "phase drivers called from main (base 3)", 1, kMaxIntParam},
    {"mean_trips", "mean loop trip count (base 10)", 2, kMaxIntParam},
    {"outer_trips", "main driver loop trip count (base 400)", 2, kMaxIntParam},
    {"loop_pct", "loop region probability, % (base 22)", 0, 100},
    {"call_pct", "call region probability, % (base 16)", 0, 100},
    {"switch_pml",
     "indirect-switch region probability, per-mille (base 15)", 0,
     1000},
    {"corr_pct", "history-correlated hammock fraction, % (base 25)", 0,
     100},
    {"phased_pct", "phase-stable hammock fraction, % (base 55)", 0,
     100},
    {"strong_bias_pct", "hammocks biased past 97%, % (base 70)", 0,
     100},
    {"noise_pml", "correlated-branch noise floor, per-mille (base 30)",
     0, 1000},
    {"ws_kb", "data working set, KiB (base 1024)", 1, family::kMaxWsKb},
};

void
validateSynth(const ParamSet &ps)
{
    const std::string &preset = ps.getString("preset");
    if (!preset.empty())
        suiteParams(preset); // throws on unknown presets
    for (const SynthKnob &k : kSynthKnobs) {
        std::int64_t v = ps.getInt(k.key);
        if (v != kInherit && v < k.floor)
            throw std::invalid_argument(
                std::string("parameter '") + k.key + "' must be >= " +
                std::to_string(k.floor) + ", got " +
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
    p.name = formatSpec("synth", ps);

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
    d.params.stringParam("preset", "",
                         "start from this suite member's parameters "
                         "(gzip, vpr, gcc, ...)");
    for (const SynthKnob &k : kSynthKnobs)
        d.params.intParam(k.key, kInherit, k.doc, kInherit, k.max);
    d.validate = validateSynth;
    d.factory = buildSynth;
    reg.add(std::move(d));
}

} // namespace sfetch
