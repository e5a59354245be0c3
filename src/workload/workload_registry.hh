/**
 * @file
 * The workload scenario registry: a SpecRegistry
 * (sim/spec_registry.hh) of WorkloadDescriptors, the workload-axis
 * twin of the fetch-engine registry (sim/engine_registry.hh). Each
 * workload *family* — a parameterized generator of
 * SyntheticWorkloads — describes itself with a WorkloadDescriptor (a
 * stable token, a display name, a documented ParamSpec with an int
 * `seed`, an optional validate hook and a factory) and registers it
 * here from its own translation unit under workload/families/.
 * Bench-name parsing, the workload cache key space and the CLI
 * `--bench` surface are registry lookups, so opening a new scenario
 * is one self-contained file.
 *
 * The textual form is the bench spec grammar shared by the CLI and
 * the workload cache:
 *
 *     family[:key=value,key=value...]
 *
 * e.g. `loops`, `loops:depth=4,trips=32`, `server:handlers=32`.
 * The eleven suite preset names (gzip, vpr, ...) remain valid bench
 * specs; they are the registry's reserved names, resolved ahead of
 * it, and canonicalize to themselves.
 */

#ifndef SFETCH_WORKLOAD_WORKLOAD_REGISTRY_HH
#define SFETCH_WORKLOAD_WORKLOAD_REGISTRY_HH

#include "sim/spec_registry.hh"
#include "workload/synth.hh"

namespace sfetch
{

/** Builds one workload from a validated parameter set. */
using WorkloadFactory =
    std::function<SyntheticWorkload(const ParamSet &)>;

/** Everything the harness needs to know about one workload family. */
struct WorkloadDescriptor : SpecEntry
{
    WorkloadFactory factory;
};

/** Process-wide registry of workload family descriptors. */
using WorkloadRegistry = SpecRegistry<WorkloadDescriptor>;

template <>
WorkloadRegistry &WorkloadRegistry::instance();

/**
 * Canonicalize one bench spec: a suite preset name maps to itself; a
 * registry family spec maps to its canonical text (registry token,
 * non-default parameters in declaration order). Throws
 * std::invalid_argument for anything else, listing both namespaces.
 */
std::string canonicalBenchSpec(const std::string &text);

/** True when @p text names a suite preset (gzip, vpr, ...). */
bool isSuitePreset(const std::string &text);

/**
 * Build the workload a bench spec names: a suite preset generates
 * the corresponding synthetic SPEC-like member; a family spec goes
 * through the registry factory.
 */
SyntheticWorkload buildBenchWorkload(const std::string &spec);

/**
 * Parse the CLI `--bench` multi-spec list (splitSpecList() grammar:
 * a list item containing '=' continues the previous spec's parameter
 * list) and canonicalize every entry. The single item "all" is
 * returned untouched for the caller to expand.
 */
std::vector<std::string> parseBenchSpecList(const std::string &text);

namespace detail
{
// Built-in family registration hooks, one per family translation
// unit under workload/families/. Naming them here is what links the
// family object files into binaries that only talk to the registry.
void registerSynthFamily(WorkloadRegistry &reg);
void registerLoopsFamily(WorkloadRegistry &reg);
void registerServerFamily(WorkloadRegistry &reg);
void registerThrashFamily(WorkloadRegistry &reg);
void registerPhasedFamily(WorkloadRegistry &reg);
} // namespace detail

} // namespace sfetch

#endif // SFETCH_WORKLOAD_WORKLOAD_REGISTRY_HH
