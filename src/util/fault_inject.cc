#include "util/fault_inject.hh"

#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "util/rng.hh"

namespace sfetch
{
namespace fault
{

namespace
{

struct Trigger
{
    enum class Kind { None, Counted, Rate };
    Kind kind = Kind::None;
    std::uint64_t skip = 0;  //!< remaining occurrences to pass
    std::uint64_t times = 0; //!< remaining occurrences to fail
    double rate = 0.0;
    Pcg32 rng;
};

struct Site
{
    Trigger trigger;
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
};

struct Registry
{
    std::mutex mu;
    std::unordered_map<std::string, Site> sites;
    std::once_flag envOnce;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

bool
knownSite(const std::string &site)
{
    for (const char *s : kKnownSites)
        if (site == s)
            return true;
    return false;
}

/** "site=skip[,times];..." — the SFETCH_FAULT grammar. */
void
applySpec(const std::string &spec)
{
    std::size_t at = 0;
    while (at < spec.size()) {
        std::size_t end = spec.find(';', at);
        if (end == std::string::npos)
            end = spec.size();
        const std::string entry = spec.substr(at, end - at);
        at = end + 1;
        if (entry.empty())
            continue;
        const std::size_t eq = entry.find('=');
        const std::string site = entry.substr(0, eq);
        std::uint64_t skip = 0, times = 1;
        if (eq != std::string::npos) {
            const std::string args = entry.substr(eq + 1);
            const std::size_t comma = args.find(',');
            try {
                skip = std::stoull(args.substr(0, comma));
                if (comma != std::string::npos)
                    times = std::stoull(args.substr(comma + 1));
            } catch (const std::exception &) {
                throw std::invalid_argument(
                    "fault spec: bad counts in '" + entry + "'");
            }
        }
        arm(site, skip, times);
    }
}

} // namespace

void
applyEnv()
{
    std::call_once(registry().envOnce, [] {
        if (const char *env = std::getenv("SFETCH_FAULT"))
            applySpec(env);
    });
}

bool
compiledIn()
{
#ifdef SFETCH_FAULT_INJECT
    return true;
#else
    return false;
#endif
}

bool
shouldFail(const char *site)
{
    applyEnv();
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    Site &s = r.sites[site];
    ++s.hits;
    Trigger &t = s.trigger;
    bool fail = false;
    switch (t.kind) {
    case Trigger::Kind::None:
        break;
    case Trigger::Kind::Counted:
        if (t.skip > 0) {
            --t.skip;
        } else if (t.times > 0) {
            --t.times;
            fail = true;
            if (t.times == 0)
                t.kind = Trigger::Kind::None;
        }
        break;
    case Trigger::Kind::Rate:
        fail = t.rng.nextBool(t.rate);
        break;
    }
    if (fail)
        ++s.fired;
    return fail;
}

void
arm(const std::string &site, std::uint64_t skip, std::uint64_t times)
{
    if (!knownSite(site))
        throw std::invalid_argument("fault: unknown site '" + site +
                                    "'");
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    Trigger &t = r.sites[site].trigger;
    t.kind = Trigger::Kind::Counted;
    t.skip = skip;
    t.times = times;
}

void
armRate(const std::string &site, double rate, std::uint64_t seed)
{
    if (!knownSite(site))
        throw std::invalid_argument("fault: unknown site '" + site +
                                    "'");
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    Trigger &t = r.sites[site].trigger;
    t.kind = Trigger::Kind::Rate;
    t.rate = rate;
    t.rng = Pcg32(seed, 0xfa17ULL);
}

void
disarm(const std::string &site)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.sites.find(site);
    if (it != r.sites.end())
        it->second.trigger.kind = Trigger::Kind::None;
}

void
disarmAll()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto &[name, site] : r.sites)
        site.trigger.kind = Trigger::Kind::None;
}

std::uint64_t
hits(const std::string &site)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.sites.find(site);
    return it == r.sites.end() ? 0 : it->second.hits;
}

std::uint64_t
fired(const std::string &site)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.sites.find(site);
    return it == r.sites.end() ? 0 : it->second.fired;
}

void
configure(const std::string &spec)
{
    applySpec(spec);
}

} // namespace fault
} // namespace sfetch
