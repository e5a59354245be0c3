/**
 * @file
 * The fetch engine registry: a SpecRegistry (sim/spec_registry.hh)
 * of EngineDescriptors. Each front end describes itself — a stable
 * token, the display name used in the paper's figures, its aliases,
 * a documented ParamSpec, an optional validate hook and a factory
 * closing over nothing — and registers it here. Every engine also
 * accepts the engine-agnostic `line` parameter, declared once by the
 * registry. Arch parsing, display names, the engine factory and the
 * "all architectures" list are registry lookups, so adding a front
 * end is one self-contained file: define the engine, define its
 * descriptor, register it. The `seq` engine (fetch/seq.cc) is the
 * working example.
 */

#ifndef SFETCH_SIM_ENGINE_REGISTRY_HH
#define SFETCH_SIM_ENGINE_REGISTRY_HH

#include "fetch/fetch_engine.hh"
#include "sim/spec_registry.hh"

namespace sfetch
{

/**
 * Builds a configured engine instance. The ParamSet arrives with
 * every parameter resolvable (in particular `line` is the concrete
 * line size, never the 0 = "4 x width" placeholder).
 */
using EngineFactory = std::function<std::unique_ptr<FetchEngine>(
    const ParamSet &, const CodeImage &, MemoryHierarchy *)>;

/** Everything the harness needs to know about one front end. */
struct EngineDescriptor : SpecEntry
{
    EngineFactory factory;
};

/** Process-wide registry of fetch engine descriptors. */
using EngineRegistry = SpecRegistry<EngineDescriptor>;

template <>
EngineRegistry &EngineRegistry::instance();

/**
 * Validate-hook helper: refuses a table whose @p entries parameter
 * is not the @p assoc parameter's value (1 when @p assoc is empty)
 * times a power-of-two set count, the geometry the set-indexed
 * tables are built for.
 */
void checkTableGeometry(const ParamSet &p, const std::string &entries,
                        const std::string &assoc = "");

namespace detail
{
// Built-in engine registration hooks, one per engine translation
// unit. Naming them here is what links the engine object files into
// binaries that only ever talk to the registry.
void registerEv8Engine(EngineRegistry &reg);
void registerFtbEngine(EngineRegistry &reg);
void registerStreamEngine(EngineRegistry &reg);
void registerTraceEngine(EngineRegistry &reg);
void registerSeqEngine(EngineRegistry &reg);
} // namespace detail

} // namespace sfetch

#endif // SFETCH_SIM_ENGINE_REGISTRY_HH
