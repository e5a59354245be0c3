#include "serve/protocol.hh"

#include <algorithm>
#include <cmath>

#include "fetch/fetch_engine.hh"
#include "sim/cli.hh"

namespace sfetch
{

namespace
{

using K = FieldSpec::Kind;

std::vector<VerbSpec>
declareVerbs()
{
    const unsigned maxWidth = FetchBundle::kCapacity;
    const std::vector<std::string> layouts = {"base", "opt"};
    const std::vector<FieldSpec> point = {
        FieldSpec("bench", K::String).need().doc("workload spec"),
        FieldSpec("spec", K::String).need().doc("engine spec"),
        FieldSpec("width", K::U64).need().range(1, maxWidth)
            .doc("pipe width"),
        FieldSpec("layout", K::OneOf).need().oneOf(layouts)
            .doc("code layout"),
        FieldSpec("insts", K::U64).need().range(1, kMaxExactU64)
            .doc("measured instructions"),
        FieldSpec("warmup", K::U64).need().doc("warmup instructions"),
    };
    const FieldSpec job =
        FieldSpec("job", K::U64).need().doc("job id", "JOB");
    const FieldSpec worker =
        FieldSpec("worker", K::String).need().range(1, kMaxExactU64)
            .doc("unix:PATH, tcp:HOST:PORT, or HOST:PORT (tcp)", "WORKER");
    using Id = VerbSpec::Id;
    return {
        {Id::Submit, "submit", {
            FieldSpec("arch", K::String).byDefault("stream")
                .doc("engine specs", "SPEC[,SPEC...]"),
            FieldSpec("bench", K::String).byDefault("gcc")
                .doc("workload specs or 'all'", "SPEC[,SPEC...]"),
            FieldSpec("widths", K::Widths).range(1, maxWidth)
                .byDefault("8").doc("pipe widths", "W[,W...]"),
            FieldSpec("layout", K::OneOf).oneOf(layouts)
                .byDefault("opt").doc("code layout", ""),
            FieldSpec("insts", K::U64).range(1, kMaxExactU64)
                .byDefault("1000000").doc("measured instructions", "N"),
            FieldSpec("warmup", K::U64)
                .doc("warmup instructions, insts/5 if omitted", "N"),
            FieldSpec("jobs", K::U64)
                .doc("sweep threads for this job, the daemon's share of "
                     "its cores if omitted or 0; 1 streams rows in point "
                     "order", "N"),
            FieldSpec("arena", K::OneOf).oneOf({"auto", "off", "require"})
                .byDefault("auto").doc("arena policy", ""),
            FieldSpec("token", K::String).byDefault("")
                .doc("idempotency token (resubmits attach to or "
                     "deduplicate the journalled job)", "TOKEN"),
            // How a front ships a shard: an arbitrary subset of a
            // grid is not expressible in the grid form.
            FieldSpec("points", K::Points).range(1, kMaxExactU64)
                .of(point, {"bench", "arch", "widths", "layout", "insts",
                            "warmup"})
                .doc("explicit sweep points instead of the grid"),
         }, {"bad_spec", "draining", "max_points_per_job", "queue_full",
             "over_quota", "over_budget"}},
        {Id::Status, "status", {job}, {"bad_spec", "unknown_job"}, "job"},
        {Id::Cancel, "cancel", {job}, {"bad_spec", "unknown_job"}, "job"},
        {Id::Stats, "stats", {}, {"bad_spec"}},
        {Id::Health, "health", {}, {"bad_spec"}},
        {Id::Workers, "workers", {}, {"bad_spec"}},
        {Id::Register, "register", {worker}, {"bad_spec"}, "worker"},
        {Id::Deregister, "deregister", {worker},
         {"bad_spec", "unknown_worker"}, "worker"},
        {Id::Shutdown, "shutdown", {
            FieldSpec("drain", K::Bool).byDefault("true")
                .doc("cancel jobs instead of finishing them",
                     "--no-drain"),
         }, {"bad_spec"}},
    };
}

/** Does @p v fit @p f's kind and bounds (points' own fields aside)? */
bool
fits(const FieldSpec &f, const JsonValue &v)
{
    using J = JsonValue::Kind;
    auto integer = [&f](const JsonValue &n) {
        return n.kind == J::Number && n.number >= double(f.min) &&
               n.number <= double(f.max) && n.number == std::floor(n.number);
    };
    auto all = [&v](auto pred) {
        return std::all_of(v.array.begin(), v.array.end(), pred);
    };
    switch (f.kind) {
    case K::U64: return integer(v);
    case K::Bool: return v.kind == J::Bool;
    case K::String: return v.kind == J::String && v.string.size() >= f.min;
    case K::OneOf:
        return v.kind == J::String &&
               std::count(f.choices.begin(), f.choices.end(), v.string);
    case K::Widths: return integer(v) || (v.kind == J::Array && all(integer));
    case K::Points:
        return v.kind == J::Array && v.array.size() >= f.min &&
               all([](const JsonValue &e) { return e.kind == J::Object; });
    }
    return false;
}

void
checkField(const FieldSpec &f, JsonValue &v, const std::string &where)
{
    if (!fits(f, v))
        throw ProtocolError("bad_spec", where + ": '" + f.name +
                                            "' must be " + f.describe());
    for (std::size_t i = 0; f.kind == K::Points && i < v.array.size(); ++i)
        checkObject(f.fields, v.array[i],
                    std::string(f.name) + "[" + std::to_string(i) + "]",
                    false);
}

} // namespace

ProtocolSchema::ProtocolSchema() : verbs(declareVerbs()) {}

const ProtocolSchema &
ProtocolSchema::instance()
{
    static const ProtocolSchema schema;
    return schema;
}

const VerbSpec &
ProtocolSchema::verbOf(const JsonValue &req) const
{
    const JsonValue *v = req.find("verb");
    if (!v || v->kind != JsonValue::Kind::String)
        throw ProtocolError("unknown_verb", "missing string 'verb'");
    for (const VerbSpec &verb : verbs)
        if (v->string == verb.name)
            return verb;
    throw ProtocolError("unknown_verb", "unknown verb '" + v->string + "'");
}

std::string
ProtocolSchema::commandRequest(
    const std::vector<std::string> &args,
    const std::map<std::string, std::string> &options) const
{
    auto verb = std::find_if(verbs.begin(), verbs.end(), [&](auto &v) {
        return !args.empty() && args[0] == v.name;
    });
    if (verb == verbs.end())
        throw std::invalid_argument(args.empty() ? "no command"
                                                 : "unknown command '" +
                                                       args[0] + "'");
    if (args.size() != (verb->positional ? 2u : 1u))
        throw std::invalid_argument(
            args[0] + " takes " + (verb->positional ? "one" : "no") +
            " argument, got " + std::to_string(args.size() - 1));
    RequestWriter w(*verb);
    if (verb->positional)
        w.set(verb->positional, args[1]);
    for (const auto &[name, text] : options)
        w.set(name, text);
    return w.str();
}

const FieldSpec &
fieldOf(const std::vector<FieldSpec> &fields, const std::string &name,
        const std::string &where)
{
    for (const FieldSpec &f : fields)
        if (name == f.name)
            return f;
    throw std::invalid_argument(where + ": no field '" + name + "'");
}

std::string
FieldSpec::describe() const
{
    const std::string range = std::to_string(min) + ".." + std::to_string(max);
    std::string list;
    for (const std::string &c : choices)
        list += (list.empty() ? "" : "|") + c;
    switch (kind) {
    case K::U64: return "an integer in " + range;
    case K::Bool: return "true or false";
    case K::String: return min ? "a non-empty string" : "a string";
    case K::OneOf: return "one of " + list;
    case K::Widths: return "an integer in " + range + " or a list of them";
    case K::Points: return "a list of " + range + " point objects";
    }
    return "";
}

std::string
FieldSpec::jsonFromText(const std::string &text) const
{
    switch (kind) {
    case K::U64:
        return std::to_string(CliParser::parseU64(text));
    case K::Bool:
        if (text != "true" && text != "false")
            throw std::invalid_argument("'" + text + "' is not a bool");
        return text;
    case K::Widths: {
        std::string list;
        for (unsigned w : CliParser::parseUnsignedList(text))
            list += (list.empty() ? "[" : ", ") + std::to_string(w);
        return list + "]";
    }
    case K::Points:
        throw std::invalid_argument(std::string(name) + " has no text form");
    default:
        return jsonQuote(text);
    }
}

void
checkObject(const std::vector<FieldSpec> &fields, JsonValue &obj,
            const std::string &where, bool request)
{
    auto refuse = [&where](const std::string &what) {
        throw ProtocolError("bad_spec", where + ": " + what);
    };
    for (auto &[name, v] : obj.object) {
        if (request && name == "verb")
            continue;
        auto f = std::find_if(fields.begin(), fields.end(),
                              [&](auto &d) { return name == d.name; });
        if (f == fields.end()) {
            std::string declared;
            for (const FieldSpec &d : fields)
                declared += (declared.empty() ? "" : ", ") +
                            std::string(d.name);
            refuse("unknown field '" + name + "'; declared: " +
                   (declared.empty() ? "none" : declared));
        }
        for (const std::string &x : f->excludes)
            if (obj.find(x))
                refuse("'" + name + "' excludes '" + x + "'");
        checkField(*f, v, where);
    }
    for (const FieldSpec &f : fields) {
        if (f.required && !obj.find(f.name))
            refuse("missing field '" + std::string(f.name) + "'");
        if (f.dflt && !obj.find(f.name))
            obj.object.emplace_back(f.name,
                                    JsonReader(f.jsonFromText(f.dflt)).parse());
    }
}

std::vector<unsigned>
Request::widths(const char *name) const
{
    JsonValue v = json_->at(name);
    if (v.kind == JsonValue::Kind::Number)
        return {static_cast<unsigned>(v.number)};
    const FieldSpec &f = fieldOf(*fields_, name);
    if (v.array.empty()) // reads as absent
        v = JsonReader(f.jsonFromText(f.dflt)).parse();
    std::vector<unsigned> out;
    for (const JsonValue &e : v.array)
        out.push_back(static_cast<unsigned>(e.number));
    return out;
}

std::vector<Request>
Request::points(const char *name) const
{
    std::vector<Request> out;
    for (const JsonValue &e : json_->at(name).array)
        out.emplace_back(fieldOf(*fields_, name).fields, e);
    return out;
}

RequestWriter &
RequestWriter::set(const std::string &name, const std::string &text)
{
    return setJson(name, fieldOf(*fields_, name, where_).jsonFromText(text));
}

RequestWriter &
RequestWriter::setJson(const std::string &name, const std::string &json)
{
    JsonValue v = JsonReader(json).parse();
    checkField(fieldOf(*fields_, name, where_), v, where_);
    w_.raw(name, json);
    return *this;
}

} // namespace sfetch
