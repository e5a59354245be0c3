/**
 * @file
 * Typed engine parameter sets. A ParamSpec declares the parameters an
 * engine accepts (name, type, default, documentation); a ParamSet is
 * a key->value store validated against one spec. Unknown keys and
 * type mismatches are hard errors with messages that list what the
 * engine actually takes, so `--arch stream:ftqq=8` fails loudly
 * instead of silently running the default configuration.
 *
 * ParamSets round-trip through the spec grammar used by the shared
 * CLI (`key=v,key=v`, see sim/config.hh for the full
 * `arch:key=v,...` form) and through the JSON emitted by
 * ResultSet::toJson(). The canonical text form lists only parameters
 * whose effective value differs from the declared default, in
 * declaration order.
 */

#ifndef SFETCH_SIM_PARAM_SET_HH
#define SFETCH_SIM_PARAM_SET_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sfetch
{

/**
 * Default upper bound of an Int parameter (2^20). Parameters are
 * sizes, counts, depths and lengths: the cap keeps every table
 * allocatable and every value within the unsigned and u32 types the
 * factories narrow to. A seed declares INT64_MAX instead.
 */
constexpr std::int64_t kMaxIntParam = std::int64_t(1) << 20;

/** Value types a parameter can declare. */
enum class ParamType
{
    Int,
    Bool,
    String,
};

/** One declared parameter: type, default, and documentation. */
struct ParamDecl
{
    std::string key;
    ParamType type = ParamType::Int;
    std::string doc;
    std::int64_t defInt = 0;
    bool defBool = false;
    std::string defString;
    /** Bounds for Int parameters. */
    std::int64_t minInt = 0;
    std::int64_t maxInt = kMaxIntParam;
};

/**
 * The declared parameter surface of one engine. Declaration order is
 * the canonical emission order. Owned by the engine's registry
 * descriptor and outlives every ParamSet bound to it.
 */
class ParamSpec
{
  public:
    ParamSpec &intParam(const std::string &key, std::int64_t def,
                        const std::string &doc,
                        std::int64_t min = 0,
                        std::int64_t max = kMaxIntParam);
    ParamSpec &boolParam(const std::string &key, bool def,
                         const std::string &doc);
    ParamSpec &stringParam(const std::string &key,
                           const std::string &def,
                           const std::string &doc);

    /** Declare every parameter of @p more after these (in order). */
    ParamSpec &append(const ParamSpec &more);

    /** The declaration for @p key, or nullptr when not declared. */
    const ParamDecl *find(const std::string &key) const;

    const std::vector<ParamDecl> &decls() const { return decls_; }
    bool empty() const { return decls_.empty(); }

    /** Comma-separated list of declared keys (for error messages). */
    std::string keyList() const;

    /** One `--list-*` line per parameter: key, default, doc. */
    std::string listText() const;

  private:
    ParamSpec &add(ParamDecl decl);

    std::vector<ParamDecl> decls_;
};

/**
 * A parameter assignment validated against one ParamSpec. Getters
 * return the set value or the declared default; every accessor
 * throws std::invalid_argument for keys the spec does not declare or
 * for type mismatches.
 */
class ParamSet
{
  public:
    /** An unbound set over an empty spec (accepts no keys). */
    ParamSet();

    /** Bind to @p spec, which must outlive this set. */
    explicit ParamSet(const ParamSpec *spec);

    const ParamSpec &spec() const { return *spec_; }

    std::int64_t getInt(const std::string &key) const;
    bool getBool(const std::string &key) const;
    const std::string &getString(const std::string &key) const;

    void setInt(const std::string &key, std::int64_t value);
    void setBool(const std::string &key, bool value);
    void setString(const std::string &key, const std::string &value);

    /**
     * Parse @p text according to the declared type of @p key and set
     * it: integers in base 10, bools as 0/1/true/false. Throws
     * std::invalid_argument on unknown keys, unparseable text, or an
     * integer outside int64 (never saturated) or the declared bounds.
     */
    void set(const std::string &key, const std::string &text);

    /** True when the effective value of @p key is its default. */
    bool isDefault(const std::string &key) const;

    /** Drop all explicit assignments (back to all-defaults). */
    void clear() { values_.clear(); }

    /**
     * Canonical text form: `key=v,key=v` over the non-default
     * parameters in declaration order; empty when all parameters are
     * at their defaults. Bools render as 1/0.
     */
    std::string toSpecText() const;

    /** Apply a `key=v,key=v` fragment (inverse of toSpecText()). */
    void applySpecText(const std::string &text);

    /**
     * JSON object of the non-default parameters, `{}` when none.
     * Ints and bools render natively; string values need no
     * escaping because setString() rejects delimiter, quote and
     * control characters (keeping the spec grammar and JSON
     * round-trips exact).
     */
    std::string toJson() const;

  private:
    struct Value
    {
        std::int64_t i = 0;
        bool b = false;
        std::string s;
    };

    const ParamDecl &require(const std::string &key,
                             ParamType type) const;
    /** The non-default parameters as spec text or JSON members. */
    std::string render(bool json) const;
    [[noreturn]] void failUnknown(const std::string &key) const;

    const ParamSpec *spec_;
    std::map<std::string, Value> values_;

    friend bool operator==(const ParamSet &a, const ParamSet &b);
};

/**
 * Split a comma-separated list of `token[:key=v,...]` specs into one
 * string per spec: an item is a continuation of the previous spec's
 * parameter list when it contains '=' before any ':', so
 * `ev8,stream:ftq=8,single_table=1` is two specs. Shared by the
 * --arch and --bench grammars. Throws std::invalid_argument on an
 * empty list or a leading continuation item.
 */
std::vector<std::string> splitSpecList(const std::string &text);

/** Effective-value equality over the (shared) spec. */
bool operator==(const ParamSet &a, const ParamSet &b);
inline bool
operator!=(const ParamSet &a, const ParamSet &b)
{
    return !(a == b);
}

} // namespace sfetch

#endif // SFETCH_SIM_PARAM_SET_HH
