#include "sim/engine_registry.hh"

#include <stdexcept>

#include "cache/cache.hh"

namespace sfetch
{

template <>
EngineRegistry &
EngineRegistry::instance()
{
    static EngineRegistry registry = [] {
        // A line larger than one way of the L1I leaves it 0 sets.
        const CacheConfig l1i = MemoryConfig{}.l1i;
        SpecKind kind;
        kind.noun = "fetch engine";
        kind.entriesLabel = "registered";
        kind.listFlag = "--list-archs";
        kind.listHeader =
            "registered fetch engines (--arch TOKEN[:key=value,...]):";
        kind.sharedParams.intParam(
            "line", 0, "i-cache line bytes (0 = 4 x pipe width)", 0,
            std::int64_t(l1i.sizeBytes / l1i.assoc));
        EngineRegistry reg(std::move(kind));
        // Registration order is the paper's plotting order; seq (the
        // extensibility demonstrator) comes last.
        detail::registerEv8Engine(reg);
        detail::registerFtbEngine(reg);
        detail::registerStreamEngine(reg);
        detail::registerTraceEngine(reg);
        detail::registerSeqEngine(reg);
        return reg;
    }();
    return registry;
}

void
checkTableGeometry(const ParamSet &p, const std::string &entries,
                   const std::string &assoc)
{
    const std::int64_t n = p.getInt(entries);
    const std::int64_t ways = assoc.empty() ? 1 : p.getInt(assoc);
    const std::int64_t sets = n / ways;
    if (n % ways == 0 && (sets & (sets - 1)) == 0 && sets != 0)
        return;
    throw std::invalid_argument(
        "parameter '" + entries + "' must be " +
        (assoc.empty() ? "" : "'" + assoc + "' (" +
                                  std::to_string(ways) + ") times ") +
        "a power of two, got " + std::to_string(n));
}

} // namespace sfetch
