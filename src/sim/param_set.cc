#include "sim/param_set.hh"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace sfetch
{

namespace
{

const char *
typeName(ParamType t)
{
    switch (t) {
      case ParamType::Int: return "int";
      case ParamType::Bool: return "bool";
      case ParamType::String: return "string";
    }
    return "?";
}

const ParamSpec &
emptySpec()
{
    static const ParamSpec spec;
    return spec;
}

} // namespace

ParamSpec &
ParamSpec::add(ParamDecl decl)
{
    if (find(decl.key))
        throw std::logic_error("ParamSpec: duplicate parameter '" +
                               decl.key + "'");
    decls_.push_back(std::move(decl));
    return *this;
}

ParamSpec &
ParamSpec::intParam(const std::string &key, std::int64_t def,
                    const std::string &doc, std::int64_t min,
                    std::int64_t max)
{
    return add({key, ParamType::Int, doc, def, false, "", min, max});
}

ParamSpec &
ParamSpec::boolParam(const std::string &key, bool def,
                     const std::string &doc)
{
    return add({key, ParamType::Bool, doc, 0, def, "", 0, 0});
}

ParamSpec &
ParamSpec::stringParam(const std::string &key, const std::string &def,
                       const std::string &doc)
{
    return add({key, ParamType::String, doc, 0, false, def, 0, 0});
}

ParamSpec &
ParamSpec::append(const ParamSpec &more)
{
    for (const ParamDecl &d : more.decls_)
        add(d);
    return *this;
}

const ParamDecl *
ParamSpec::find(const std::string &key) const
{
    for (const ParamDecl &d : decls_)
        if (d.key == key)
            return &d;
    return nullptr;
}

std::string
ParamSpec::keyList() const
{
    std::string out;
    for (const ParamDecl &d : decls_) {
        if (!out.empty())
            out += ", ";
        out += d.key;
    }
    return out.empty() ? "<none>" : out;
}

std::string
ParamSpec::listText() const
{
    std::string out;
    for (const ParamDecl &d : decls_) {
        std::string lhs = "        " + d.key + " = ";
        switch (d.type) {
          case ParamType::Int: lhs += std::to_string(d.defInt); break;
          case ParamType::Bool: lhs += d.defBool ? "1" : "0"; break;
          case ParamType::String: lhs += d.defString; break;
        }
        out += lhs + std::string(lhs.size() < 28 ? 28 - lhs.size() : 1,
                                 ' ') + d.doc + "\n";
    }
    return out;
}

ParamSet::ParamSet() : spec_(&emptySpec()) {}

ParamSet::ParamSet(const ParamSpec *spec)
    : spec_(spec ? spec : &emptySpec())
{}

void
ParamSet::failUnknown(const std::string &key) const
{
    throw std::invalid_argument("unknown parameter '" + key +
                                "' (known: " + spec_->keyList() +
                                ")");
}

const ParamDecl &
ParamSet::require(const std::string &key, ParamType type) const
{
    const ParamDecl *d = spec_->find(key);
    if (!d)
        failUnknown(key);
    if (d->type != type)
        throw std::invalid_argument(
            "parameter '" + key + "' is " + typeName(d->type) +
            ", accessed as " + typeName(type));
    return *d;
}

std::int64_t
ParamSet::getInt(const std::string &key) const
{
    const ParamDecl &d = require(key, ParamType::Int);
    auto it = values_.find(key);
    return it == values_.end() ? d.defInt : it->second.i;
}

bool
ParamSet::getBool(const std::string &key) const
{
    const ParamDecl &d = require(key, ParamType::Bool);
    auto it = values_.find(key);
    return it == values_.end() ? d.defBool : it->second.b;
}

const std::string &
ParamSet::getString(const std::string &key) const
{
    const ParamDecl &d = require(key, ParamType::String);
    auto it = values_.find(key);
    return it == values_.end() ? d.defString : it->second.s;
}

void
ParamSet::setInt(const std::string &key, std::int64_t value)
{
    const ParamDecl &d = require(key, ParamType::Int);
    if (value < d.minInt)
        throw std::invalid_argument(
            "parameter '" + key + "' must be >= " +
            std::to_string(d.minInt) + ", got " +
            std::to_string(value));
    if (value > d.maxInt)
        throw std::invalid_argument(
            "parameter '" + key + "' must be <= " +
            std::to_string(d.maxInt) + ", got " +
            std::to_string(value));
    values_[key].i = value;
}

void
ParamSet::setBool(const std::string &key, bool value)
{
    require(key, ParamType::Bool);
    values_[key].b = value;
}

void
ParamSet::setString(const std::string &key, const std::string &value)
{
    require(key, ParamType::String);
    // Keep values representable in the spec grammar and in JSON
    // without escaping machinery: the delimiters and quote/control
    // characters are rejected outright.
    if (value.find_first_of(",=:\"\\") != std::string::npos ||
        value.find_first_of("\n\r\t") != std::string::npos)
        throw std::invalid_argument(
            "parameter '" + key +
            "' value may not contain , = : quotes, backslashes or "
            "control characters");
    values_[key].s = value;
}

void
ParamSet::set(const std::string &key, const std::string &text)
{
    const ParamDecl *d = spec_->find(key);
    if (!d)
        failUnknown(key);
    switch (d->type) {
      case ParamType::Int: {
        char *end = nullptr;
        errno = 0;
        long long v = std::strtoll(text.c_str(), &end, 10);
        if (end == text.c_str() || *end != '\0' || errno == ERANGE)
            throw std::invalid_argument(
                "parameter '" + key + "' expects an integer, got '" +
                text + "'");
        setInt(key, v);
        return;
      }
      case ParamType::Bool: {
        if (text == "1" || text == "true") {
            setBool(key, true);
            return;
        }
        if (text == "0" || text == "false") {
            setBool(key, false);
            return;
        }
        throw std::invalid_argument(
            "parameter '" + key + "' expects 0/1/true/false, got '" +
            text + "'");
      }
      case ParamType::String:
        setString(key, text);
        return;
    }
}

bool
ParamSet::isDefault(const std::string &key) const
{
    const ParamDecl *d = spec_->find(key);
    if (!d)
        failUnknown(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return true;
    switch (d->type) {
      case ParamType::Int: return it->second.i == d->defInt;
      case ParamType::Bool: return it->second.b == d->defBool;
      case ParamType::String: return it->second.s == d->defString;
    }
    return true;
}

std::string
ParamSet::render(bool json) const
{
    // `key=v,key=v` with bools as 1/0, or the body of a JSON object
    // with bools as true/false and strings quoted.
    const char *quote = json ? "\"" : "";
    std::ostringstream os;
    for (const ParamDecl &d : spec_->decls()) {
        if (isDefault(d.key))
            continue;
        if (os.tellp() > 0)
            os << (json ? ", " : ",");
        os << quote << d.key << quote << (json ? ": " : "=");
        switch (d.type) {
          case ParamType::Int: os << getInt(d.key); break;
          case ParamType::Bool:
            os << (getBool(d.key) ? (json ? "true" : "1")
                                  : (json ? "false" : "0"));
            break;
          case ParamType::String:
            os << quote << getString(d.key) << quote;
            break;
        }
    }
    return os.str();
}

std::string
ParamSet::toSpecText() const
{
    return render(false);
}

void
ParamSet::applySpecText(const std::string &text)
{
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::invalid_argument(
                "bad parameter assignment '" + item +
                "' (want key=value)");
        set(item.substr(0, eq), item.substr(eq + 1));
    }
}

std::string
ParamSet::toJson() const
{
    return "{" + render(true) + "}";
}

std::vector<std::string>
splitSpecList(const std::string &text)
{
    // Split on commas, then re-attach bare key=value items to the
    // spec before them: "ev8,stream:ftq=8,single_table=1" is
    // ["ev8", "stream:ftq=8,single_table=1"]. An item starts a new
    // spec when it has no '=', or when a ':' introduces a parameter
    // list before the first '=' (i.e. it names a token).
    std::vector<std::string> specs;
    std::string item;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        item = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        std::size_t colon = item.find(':');
        bool continuation = eq != std::string::npos &&
            (colon == std::string::npos || colon > eq);
        if (continuation && specs.empty())
            throw std::invalid_argument(
                "spec list starts with a parameter assignment '" +
                item + "' (no token to attach it to)");
        if (continuation)
            specs.back() += "," + item;
        else
            specs.push_back(item);
    }
    if (specs.empty())
        throw std::invalid_argument("empty spec list");
    return specs;
}

bool
operator==(const ParamSet &a, const ParamSet &b)
{
    // The canonical text lists exactly the non-default effective
    // values, and no value contains its delimiters.
    return a.spec_ == b.spec_ && a.toSpecText() == b.toSpecText();
}

} // namespace sfetch
