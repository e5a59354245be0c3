/**
 * @file
 * SimConfig: one fully-specified experiment as (engine token, engine
 * ParamSet, engine-agnostic knobs). The engine-specific surface —
 * line size, FTQ depth, ablation switches — lives in the owning
 * engine's ParamSpec; the knobs every run has — pipe width, code
 * layout, instruction counts — stay typed fields.
 *
 * The textual form is the spec grammar shared by the CLI, CSV and
 * JSON emitters:
 *
 *     arch[:key=value,key=value...]
 *
 * e.g. `stream`, `stream:ftq=8,single_table=1`, `trace:partial_match=1`.
 * specText() emits the canonical form (registry token, non-default
 * parameters in declaration order); fromSpec() accepts aliases and
 * any parameter order.
 */

#ifndef SFETCH_SIM_CONFIG_HH
#define SFETCH_SIM_CONFIG_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/engine_registry.hh"
#include "sim/param_set.hh"
#include "util/types.hh"

namespace sfetch
{

/** Line size implied by Table 2: 4 x pipe width instructions. */
unsigned defaultLineBytes(unsigned width);

/** One fully-specified experiment over the engine registry. */
class SimConfig
{
  public:
    unsigned width = 8;          //!< pipe width: 2, 4, or 8
    bool optimizedLayout = true; //!< spike-style layout vs baseline
    InstCount insts = 2'000'000; //!< measured instructions
    InstCount warmupInsts = 300'000;

    /** Defaults to the stream fetch architecture. */
    SimConfig();

    /** Engine selected by registry token or alias. */
    explicit SimConfig(const std::string &arch_token);

    /**
     * Parse `arch[:key=v,...]`. Accepts aliases; throws
     * std::invalid_argument on unknown engines, unknown keys, or
     * values that are unparseable, out of their declared bounds or
     * refused by the engine's validate hook.
     */
    static SimConfig fromSpec(const std::string &spec);

    /** Canonical engine spec: token plus non-default parameters. */
    std::string specText() const;

    /** Display label: figure name, plus parameters when ablated. */
    std::string label() const;

    /** The canonical registry token of the selected engine. */
    const std::string &arch() const { return desc_->token; }

    /** Select a different engine; resets the parameters. */
    void setArch(const std::string &arch_token);

    const EngineDescriptor &descriptor() const { return *desc_; }

    ParamSet &params() { return params_; }
    const ParamSet &params() const { return params_; }

    /**
     * The concrete i-cache line size of this run: the `line`
     * parameter, or 4 x width (Table 2) when it is 0. Throws when a
     * nonzero override is not a power of two.
     */
    unsigned lineBytes() const;

    /** Build the configured fetch engine via the registry factory. */
    std::unique_ptr<FetchEngine>
    makeEngine(const CodeImage &image, MemoryHierarchy *mem) const;

  private:
    const EngineDescriptor *desc_;
    ParamSet params_;
};

bool operator==(const SimConfig &a, const SimConfig &b);
inline bool
operator!=(const SimConfig &a, const SimConfig &b)
{
    return !(a == b);
}

/**
 * Parse the CLI multi-spec form: comma-separated engine specs where
 * a list item containing '=' continues the previous spec's parameter
 * list, so `ev8,stream:ftq=8,single_table=1` is two specs. Returns
 * one SimConfig per spec with the engine-agnostic knobs at their
 * defaults.
 */
std::vector<SimConfig> parseArchSpecList(const std::string &text);

/** One SimConfig per paper-default engine, in plotting order. */
std::vector<SimConfig> paperArchConfigs();

} // namespace sfetch

#endif // SFETCH_SIM_CONFIG_HH
