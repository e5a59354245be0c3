#include "workload/workload_registry.hh"

#include <algorithm>
#include <stdexcept>

#include "workload/suite.hh"

namespace sfetch
{

template <>
WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry registry = [] {
        SpecKind kind;
        kind.noun = "workload";
        kind.entriesLabel = "families";
        kind.listFlag = "--list-benches";
        kind.listHeader = "registered workload families "
                          "(--bench FAMILY[:key=value,...]):";
        kind.reserved = suiteNames();
        kind.reservedLabel = "suite presets";
        kind.reservedNote = "bare names; the paper's Figure 9 benchmarks";
        WorkloadRegistry reg(std::move(kind));
        // Registration order is the --list-benches order; synth (the
        // original generator behind the SPEC-like suite) comes first.
        detail::registerSynthFamily(reg);
        detail::registerLoopsFamily(reg);
        detail::registerServerFamily(reg);
        detail::registerThrashFamily(reg);
        detail::registerPhasedFamily(reg);
        return reg;
    }();
    return registry;
}

// ---- bench spec resolution (families + suite presets) ----

bool
isSuitePreset(const std::string &text)
{
    const std::vector<std::string> &names = suiteNames();
    return std::find(names.begin(), names.end(), text) != names.end();
}

std::string
canonicalBenchSpec(const std::string &text)
{
    std::size_t colon = text.find(':');
    if (colon == std::string::npos && isSuitePreset(text))
        return text;
    if (colon != std::string::npos &&
        isSuitePreset(text.substr(0, colon)))
        throw std::invalid_argument(
            "suite preset '" + text.substr(0, colon) +
            "' takes no parameters; use `synth:preset=" +
            text.substr(0, colon) + "," + text.substr(colon + 1) +
            "` to vary it");
    ParamSet params;
    return formatSpec(
        WorkloadRegistry::instance().parse(text, params).token, params);
}

SyntheticWorkload
buildBenchWorkload(const std::string &spec)
{
    if (spec.find(':') == std::string::npos && isSuitePreset(spec))
        return generateWorkload(suiteParams(spec));
    ParamSet params;
    const WorkloadDescriptor &family =
        WorkloadRegistry::instance().parse(spec, params);
    SyntheticWorkload w = family.factory(params);
    // Factories name the program after the canonical spec; guard the
    // contract here so the cache key, result rows, and trace headers
    // all agree on one name.
    const std::string name = formatSpec(family.token, params);
    if (w.program.name() != name)
        throw std::logic_error("workload family '" + family.token +
                               "' misnamed its program: '" +
                               w.program.name() + "' (want '" + name +
                               "')");
    return w;
}

std::vector<std::string>
parseBenchSpecList(const std::string &text)
{
    std::vector<std::string> specs = splitSpecList(text);
    if (specs.size() == 1 && specs[0] == "all")
        return specs;
    for (std::string &spec : specs)
        spec = canonicalBenchSpec(spec);
    return specs;
}

} // namespace sfetch
