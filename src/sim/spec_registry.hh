/**
 * @file
 * One registry for both axes of the evaluation grid: fetch engines
 * (sim/engine_registry.hh) and workload families
 * (workload/workload_registry.hh). Each entry describes itself — a
 * stable token, the display name used in figures, aliases, a
 * documented ParamSpec, an optional validate hook and a factory — and
 * is named by the spec grammar shared by the CLI, the result rows and
 * the workload cache:
 *
 *     token[:key=value,key=value...]
 *
 * The two registries differ only in data (SpecKind): the noun and
 * `--list-*` flag their messages use, the parameters every entry
 * accepts, and the reserved names (the suite presets) no entry takes.
 */

#ifndef SFETCH_SIM_SPEC_REGISTRY_HH
#define SFETCH_SIM_SPEC_REGISTRY_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/param_set.hh"

namespace sfetch
{

/** What every registered entry declares, engine or workload. */
struct SpecEntry
{
    std::string token;       //!< canonical spec token, e.g. "stream"
    std::string displayName; //!< figure label, e.g. "Streams"
    std::string summary;     //!< one-line description for --list-*
    std::vector<std::string> aliases; //!< accepted alternate tokens
    /** Member of the paper's comparison set (`[paper]` in listings);
     * engines with it are what sweeps run when --arch is not given. */
    bool paperDefault = false;
    ParamSpec params;
    /**
     * Optional check run at spec-parse time, after the ParamSet's own
     * type and bounds checks, for constraints one parameter's bounds
     * cannot express (a table's entries against its associativity).
     * Throws std::invalid_argument naming the parameter.
     */
    std::function<void(const ParamSet &)> validate;
};

/** The data that tells one registry's messages from the other's. */
struct SpecKind
{
    std::string noun;         //!< "unknown fetch engine 'x'"
    std::string entriesLabel; //!< heads the token list in that error
    std::string listFlag;     //!< "--list-archs"
    std::string listHeader;   //!< first line of listText()
    ParamSpec sharedParams;   //!< declared ahead of every entry's own
    std::vector<std::string> reserved; //!< names no entry may take
    std::string reservedLabel;         //!< "suite presets"
    std::string reservedNote; //!< the listing trailer's parenthetical
};

/** Canonical spec text: @p token, then `:` and the non-default
 * parameters in declaration order when there are any. */
inline std::string
formatSpec(const std::string &token, const ParamSet &params)
{
    std::string text = params.toSpecText();
    return text.empty() ? token : token + ":" + text;
}

/** A registry of Descriptor (a SpecEntry with a `factory`). */
template <class Descriptor>
class SpecRegistry
{
  public:
    /** An empty registry (the global ones come from instance()). */
    explicit SpecRegistry(SpecKind kind) : kind_(std::move(kind)) {}

    /** The global instance, with the built-in entries registered. */
    static SpecRegistry &instance();

    const SpecKind &kind() const { return kind_; }

    /**
     * Register a descriptor, its parameters following the shared
     * ones. Throws std::logic_error on an empty or taken token or
     * alias (reserved names included) and on a missing factory.
     */
    void
    add(Descriptor desc)
    {
        if (desc.token.empty() || !desc.factory)
            throw std::logic_error("registry: a " + kind_.noun +
                                   " needs a token and a factory");
        auto taken = [this](const std::string &t) {
            return tryFind(t) || std::count(kind_.reserved.begin(),
                                            kind_.reserved.end(), t);
        };
        if (taken(desc.token))
            throw std::logic_error("registry: duplicate token '" +
                                   desc.token + "'");
        for (const std::string &alias : desc.aliases)
            if (taken(alias) || alias == desc.token)
                throw std::logic_error("registry: duplicate alias '" +
                                       alias + "'");
        desc.params = ParamSpec(kind_.sharedParams).append(desc.params);
        entries_.push_back(
            std::make_unique<const Descriptor>(std::move(desc)));
    }

    /** @p token (canonical or alias)'s descriptor, or nullptr. */
    const Descriptor *
    tryFind(const std::string &token) const
    {
        for (const auto &e : entries_)
            if (e->token == token || std::count(e->aliases.begin(),
                                                e->aliases.end(), token))
                return e.get();
        return nullptr;
    }

    /** tryFind(), throwing std::invalid_argument listing every token
     * and reserved name when nothing matches. */
    const Descriptor &
    find(const std::string &token) const
    {
        if (const Descriptor *e = tryFind(token))
            return *e;
        std::ostringstream os;
        os << "unknown " << kind_.noun << " '" << token << "' ("
           << kind_.entriesLabel << ':';
        for (const auto &e : entries_) {
            os << ' ' << e->token;
            for (const std::string &alias : e->aliases)
                os << '|' << alias;
        }
        if (!kind_.reserved.empty()) {
            os << "; " << kind_.reservedLabel << ':';
            for (const std::string &name : kind_.reserved)
                os << ' ' << name;
        }
        os << "); see " << kind_.listFlag;
        throw std::invalid_argument(os.str());
    }

    /**
     * Parse `token[:key=v,...]` (aliases, any parameter order): bind
     * @p params to the descriptor it names, and return that. Throws
     * std::invalid_argument on an unknown token or key, a value out
     * of its bounds, or one the descriptor's validate hook refuses —
     * at parse time, where the CLI exits 2 and sfetchd answers
     * bad_spec, not mid-sweep on a worker thread.
     */
    const Descriptor &
    parse(const std::string &spec, ParamSet &params) const
    {
        std::size_t colon = spec.find(':');
        const Descriptor &desc = find(spec.substr(0, colon));
        params = ParamSet(&desc.params);
        if (colon != std::string::npos)
            params.applySpecText(spec.substr(colon + 1));
        if (desc.validate)
            desc.validate(params);
        return desc;
    }

    /** Canonical tokens in registration (= listing) order; with
     * @p paper_only, the paper's default comparison set. */
    std::vector<std::string>
    tokens(bool paper_only = false) const
    {
        std::vector<std::string> out;
        for (const auto &e : entries_)
            if (!paper_only || e->paperDefault)
                out.push_back(e->token);
        return out;
    }

    std::vector<std::string> paperTokens() const { return tokens(true); }

    std::size_t size() const { return entries_.size(); }

    /** The `--list-*` text: every entry with its aliases and
     * parameter lines, then the reserved names. */
    std::string
    listText() const
    {
        std::ostringstream os;
        os << kind_.listHeader << "\n";
        for (const auto &e : entries_) {
            os << "\n  " << e->token;
            for (const std::string &alias : e->aliases)
                os << " | " << alias;
            os << "  --  " << e->displayName
               << (e->paperDefault ? "  [paper]" : "") << "\n      "
               << e->summary << "\n"
               << e->params.listText();
        }
        if (!kind_.reserved.empty()) {
            os << "\n" << kind_.reservedLabel << " ("
               << kind_.reservedNote << "):\n ";
            for (const std::string &name : kind_.reserved)
                os << ' ' << name;
            os << "\n";
        }
        return os.str();
    }

  private:
    SpecKind kind_;
    /** Descriptor storage; addresses stay stable across add(). */
    std::vector<std::unique_ptr<const Descriptor>> entries_;
};

} // namespace sfetch

#endif // SFETCH_SIM_SPEC_REGISTRY_HH
