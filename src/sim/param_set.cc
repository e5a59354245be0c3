#include "sim/param_set.hh"

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
    ParamDecl d;
    d.key = key;
    d.type = ParamType::Int;
    d.doc = doc;
    d.defInt = def;
    d.minInt = min;
    d.maxInt = max;
    return add(std::move(d));
}

ParamSpec &
ParamSpec::boolParam(const std::string &key, bool def,
                     const std::string &doc)
{
    ParamDecl d;
    d.key = key;
    d.type = ParamType::Bool;
    d.doc = doc;
    d.defBool = def;
    return add(std::move(d));
}

ParamSpec &
ParamSpec::stringParam(const std::string &key, const std::string &def,
                       const std::string &doc)
{
    ParamDecl d;
    d.key = key;
    d.type = ParamType::String;
    d.doc = doc;
    d.defString = def;
    return add(std::move(d));
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
        long long v = std::strtoll(text.c_str(), &end, 10);
        if (end == text.c_str() || *end != '\0')
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
ParamSet::toSpecText() const
{
    std::ostringstream os;
    bool first = true;
    for (const ParamDecl &d : spec_->decls()) {
        if (isDefault(d.key))
            continue;
        os << (first ? "" : ",") << d.key << '=';
        first = false;
        switch (d.type) {
          case ParamType::Int: os << getInt(d.key); break;
          case ParamType::Bool: os << (getBool(d.key) ? 1 : 0); break;
          case ParamType::String: os << getString(d.key); break;
        }
    }
    return os.str();
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
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const ParamDecl &d : spec_->decls()) {
        if (isDefault(d.key))
            continue;
        os << (first ? "" : ", ") << '"' << d.key << "\": ";
        first = false;
        switch (d.type) {
          case ParamType::Int:
            os << getInt(d.key);
            break;
          case ParamType::Bool:
            os << (getBool(d.key) ? "true" : "false");
            break;
          case ParamType::String:
            os << '"' << getString(d.key) << '"';
            break;
        }
    }
    os << '}';
    return os.str();
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
    if (a.spec_ != b.spec_)
        return false;
    for (const ParamDecl &d : a.spec_->decls()) {
        switch (d.type) {
          case ParamType::Int:
            if (a.getInt(d.key) != b.getInt(d.key))
                return false;
            break;
          case ParamType::Bool:
            if (a.getBool(d.key) != b.getBool(d.key))
                return false;
            break;
          case ParamType::String:
            if (a.getString(d.key) != b.getString(d.key))
                return false;
            break;
        }
    }
    return true;
}

} // namespace sfetch
