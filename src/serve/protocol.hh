/**
 * @file
 * The sfetchd wire protocol, declared once. ProtocolSchema lists each
 * request verb with its typed fields and the refusals it may return.
 * The daemon checks every request against it before any handler
 * runs, and handlers read typed values; sfetchctl derives its
 * options, usage and arguments from it; a front writes its shard
 * submits through it. serve/server.hh shows an exchange.
 */

#ifndef SFETCH_SERVE_PROTOCOL_HH
#define SFETCH_SERVE_PROTOCOL_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/jsonio.hh"

namespace sfetch
{

/**
 * The largest integer a request may carry. JsonReader holds numbers
 * as doubles, which are exact only below 2^53: 9007199254740993
 * would silently arrive as 9007199254740992.
 */
constexpr std::uint64_t kMaxExactU64 = (std::uint64_t(1) << 53) - 1;

/** A refused request: its protocol `reason` and a readable message. */
struct ProtocolError : std::invalid_argument
{
    ProtocolError(std::string why, const std::string &what)
        : std::invalid_argument(what), reason(std::move(why)) {}
    std::string reason;
};

/** The `layout` and `arena` choices, in declared order. */
enum class LayoutChoice { Base, Opt };
enum class ArenaChoice { Auto, Off, Require };

/** One declared request field. */
struct FieldSpec
{
    /** [min, max] bounds an integer, each width, a string's length
     * and the number of points. */
    enum class Kind { U64, Bool, String, OneOf, Widths, Points };

    FieldSpec(const char *n, Kind k) : name(n), kind(k) {}
    FieldSpec &need() { required = true; return *this; }
    FieldSpec &range(std::uint64_t lo, std::uint64_t hi)
    { min = lo; max = hi; return *this; }
    FieldSpec &byDefault(const char *text) { dflt = text; return *this; }
    FieldSpec &oneOf(std::vector<std::string> c)
    { choices = std::move(c); return *this; }
    FieldSpec &of(std::vector<FieldSpec> f, std::vector<std::string> x)
    { fields = std::move(f); excludes = std::move(x); return *this; }
    /** Document the field; a non-null @p meta also puts it on
     * sfetchctl's command line (for a Bool, the flag that clears it;
     * for a OneOf, "" shows the choices). */
    FieldSpec &doc(const char *text, const char *meta = nullptr)
    { help = text; metavar = meta; return *this; }

    /** What a value must be, e.g. "an integer in 1..16". */
    std::string describe() const;
    /** @p text (command-line form) as this field's JSON value; throws
     * std::invalid_argument when it does not parse. */
    std::string jsonFromText(const std::string &text) const;

    const char *name;
    Kind kind;
    bool required = false;
    std::uint64_t min = 0, max = kMaxExactU64;
    std::vector<std::string> choices;
    const char *dflt = nullptr; //!< an absent field's text form
    const char *help = "";
    const char *metavar = nullptr; //!< null: not on the command line
    std::vector<FieldSpec> fields;     //!< Points: one point's fields
    std::vector<std::string> excludes; //!< may not appear alongside
};

/** The field of @p fields named @p name; std::invalid_argument,
 * prefixed with @p where, if none. */
const FieldSpec &fieldOf(const std::vector<FieldSpec> &fields,
                         const std::string &name,
                         const std::string &where = "request");

/**
 * Throw ProtocolError("bad_spec"), naming the field, unless object
 * @p obj holds only @p fields (and "verb" if @p request), each
 * fitting, and every required one; then add every absent field's
 * default, so handlers read any field but an optional one without a
 * default directly. @p where prefixes messages.
 */
void checkObject(const std::vector<FieldSpec> &fields, JsonValue &obj,
                 const std::string &where, bool request = true);

/** One request verb. */
struct VerbSpec
{
    enum class Id
    {
        Submit, Status, Cancel, Stats, Health, Workers, Register,
        Deregister, Shutdown
    };

    Id id;
    const char *name;
    std::vector<FieldSpec> fields;
    /** Refusals beyond ProtocolSchema::connectionReasons. */
    std::vector<std::string> reasons;
    /** The field sfetchctl takes as the verb's argument, or null. */
    const char *positional = nullptr;
};

/** Typed reads of a request, or of one of its points, that
 * checkObject() passed and completed, so has() is false only for an
 * absent field without a default. Holds @p json by reference. */
class Request
{
  public:
    Request(const std::vector<FieldSpec> &fields, const JsonValue &json)
        : fields_(&fields), json_(&json) {}

    bool has(const char *name) const { return json_->find(name); }
    std::uint64_t u64(const char *name) const
    { return json_->at(name).asU64(); }
    bool flag(const char *name) const { return json_->at(name).asBool(); }
    const std::string &text(const char *name) const
    { return json_->at(name).asString(); }
    /** A OneOf field as enum @p E, whose order is the choices'. */
    template <class E>
    E choice(const char *name) const
    {
        const auto &c = fieldOf(*fields_, name).choices;
        return E(std::find(c.begin(), c.end(), text(name)) - c.begin());
    }
    std::vector<unsigned> widths(const char *name) const;
    std::vector<Request> points(const char *name) const;

  private:
    const std::vector<FieldSpec> *fields_;
    const JsonValue *json_;
};

/** Writes a request (or one point) field by field; an undeclared
 * field or a value that does not fit throws std::invalid_argument. */
class RequestWriter
{
  public:
    explicit RequestWriter(const VerbSpec &verb) //!< "verb" first
        : fields_(&verb.fields), where_(verb.name)
    { w_.field("verb", verb.name); }
    explicit RequestWriter(const std::vector<FieldSpec> &fields)
        : fields_(&fields) {}

    /** Set @p name from its command-line text form. */
    RequestWriter &set(const std::string &name, const std::string &text);
    RequestWriter &set(const std::string &name, std::uint64_t value)
    { return set(name, std::to_string(value)); }
    template <class E>
    RequestWriter &setChoice(const std::string &name, E e)
    { return set(name, fieldOf(*fields_, name, where_).choices.at(int(e))); }
    RequestWriter &setJson(const std::string &name, const std::string &json);

    std::string str() const { return w_.str(); }

  private:
    const std::vector<FieldSpec> *fields_;
    std::string where_ = "point";
    JsonObjectWriter w_;
};

/** The declared protocol. */
class ProtocolSchema
{
  public:
    static const ProtocolSchema &instance();

    /** Every verb, in VerbSpec::Id order. */
    const std::vector<VerbSpec> verbs;
    /** Refusals any request may meet, whatever its verb. */
    const std::vector<std::string> connectionReasons = {
        "bad_json", "unknown_verb", "busy", "timeout"};

    const VerbSpec &verb(VerbSpec::Id id) const { return verbs[int(id)]; }
    /** The verb @p req names; throws ProtocolError("unknown_verb"). */
    const VerbSpec &verbOf(const JsonValue &req) const;

    /**
     * The request sfetchctl sends for @p args (COMMAND [ARG]) and
     * @p options (field name -> command-line text). Throws
     * std::invalid_argument on a usage error: an unknown command, a
     * missing or extra argument, an option the verb does not take, or
     * a value that does not fit.
     */
    std::string
    commandRequest(const std::vector<std::string> &args,
                   const std::map<std::string, std::string> &options) const;

  private:
    ProtocolSchema();
};

} // namespace sfetch

#endif // SFETCH_SERVE_PROTOCOL_HH
