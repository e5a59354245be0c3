#include "sim/results.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>

#include "serve/jsonio.hh"
#include "sim/cli.hh"

namespace sfetch
{

OutputFormat
parseFormat(const std::string &token)
{
    if (token == "table")
        return OutputFormat::Table;
    if (token == "csv")
        return OutputFormat::Csv;
    if (token == "json")
        return OutputFormat::Json;
    throw std::invalid_argument("unknown format '" + token +
                                "' (want table|csv|json)");
}

bool
operator==(const ResultRow &a, const ResultRow &b)
{
    return a.bench == b.bench && a.cfg == b.cfg && a.stats == b.stats;
}

ResultSet
ResultSet::where(
    const std::function<bool(const ResultRow &)> &pred) const
{
    ResultSet out;
    out.wallSeconds_ = wallSeconds_;
    for (const ResultRow &r : rows_)
        if (pred(r))
            out.rows_.push_back(r);
    return out;
}

std::vector<double>
ResultSet::collect(
    const std::function<bool(const ResultRow &)> &pred,
    const std::function<double(const ResultRow &)> &get) const
{
    std::vector<double> out;
    for (const ResultRow &r : rows_)
        if (pred(r))
            out.push_back(get(r));
    return out;
}

double
ResultSet::mean(MeanKind kind,
                const std::function<bool(const ResultRow &)> &pred,
                const std::function<double(const ResultRow &)> &get)
    const
{
    return meanOf(collect(pred, get), kind);
}

namespace
{

/** Doubles rendered so that parsing recovers the exact bit pattern. */
std::string
d2s(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
u2s(std::uint64_t v)
{
    return std::to_string(v);
}

/** Value @p i of @p f in @p st, as both CSV and JSON write it. */
std::string
valueText(const SimStatField &f, const SimStats &st, std::size_t i)
{
    switch (f.kind) {
      case SimStatField::Kind::Rate: return d2s(st.*f.rate);
      case SimStatField::Kind::Ratio: return d2s((st.*f.ratio)());
      default: return u2s(f.u64(st, i));
    }
}

/** CSV column of value @p i of @p f. */
std::string
csvColumn(const SimStatField &f, std::size_t i)
{
    return f.csvPrefix ? f.csvPrefix + std::to_string(i) : f.name;
}

/**
 * Call @p fn(field, i) for every stored value (@p stored) or every
 * derived ratio, in kSimStatFields order.
 */
template <class Fn>
void
forEachValue(bool stored, Fn fn)
{
    for (const SimStatField &f : kSimStatFields)
        if (f.stored() == stored)
            for (std::size_t i = 0; i < f.arity; ++i)
                fn(f, i);
}

/**
 * Columns of toCsv(): the config cells, every stored SimStats value,
 * wall_seconds and (with @p ratios) the derived ratios, which
 * fromCsv() ignores. Parsing is by header name, not index. `spec` is
 * the canonical engine spec string (`arch:key=v,...`) and carries
 * every engine-specific parameter.
 */
std::vector<std::string>
csvColumns(bool ratios)
{
    std::vector<std::string> cols = {"bench", "spec", "width",
                                     "layout", "insts", "warmup"};
    auto add = [&](const SimStatField &f, std::size_t i) {
        cols.push_back(csvColumn(f, i));
    };
    forEachValue(true, add);
    cols.push_back("wall_seconds");
    if (ratios)
        forEachValue(false, add);
    return cols;
}

/** Quote a cell when it needs it (spec strings contain commas). */
std::string
csvCell(const std::string &text)
{
    if (text.find_first_of(",\"\n") == std::string::npos)
        return text;
    std::string out = "\"";
    for (char c : text) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cur;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cur.push_back('"');
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cur.push_back(c);
            }
        } else if (c == '"' && cur.empty()) {
            quoted = true;
        } else if (c == ',') {
            cells.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    cells.push_back(cur);
    return cells;
}

double
toD(const std::string &s)
{
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0')
        throw std::runtime_error("fromCsv: bad number '" + s + "'");
    return v;
}

/** A JSON engine param as setInt() takes it: an exact int64. */
std::int64_t
paramInt(const std::string &key, double v)
{
    if (v != std::floor(v) || !(v >= -0x1p63 && v < 0x1p63))
        throw std::runtime_error("fromJson: param '" + key +
                                 "' is not an int64 integer");
    return static_cast<std::int64_t>(v);
}

} // namespace

std::string
ResultSet::toCsv() const
{
    std::ostringstream os;
    const std::vector<std::string> cols = csvColumns(true);
    for (std::size_t c = 0; c < cols.size(); ++c)
        os << (c ? "," : "") << cols[c];
    os << "\n";
    for (const ResultRow &r : rows_) {
        auto value = [&](const SimStatField &f, std::size_t i) {
            os << ',' << valueText(f, r.stats, i);
        };
        os << r.bench << ',' << csvCell(r.cfg.specText()) << ','
           << r.cfg.width << ','
           << (r.cfg.optimizedLayout ? "opt" : "base") << ','
           << u2s(r.cfg.insts) << ',' << u2s(r.cfg.warmupInsts);
        forEachValue(true, value);
        os << ',' << d2s(r.wallSeconds);
        forEachValue(false, value);
        os << "\n";
    }
    return os.str();
}

ResultSet
ResultSet::fromCsv(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    if (!std::getline(is, line))
        throw std::runtime_error("fromCsv: empty input");

    std::map<std::string, std::size_t> col;
    std::vector<std::string> header = splitCsvLine(line);
    for (std::size_t i = 0; i < header.size(); ++i)
        col[header[i]] = i;

    auto need = [&](const std::string &name) {
        auto it = col.find(name);
        if (it == col.end())
            throw std::runtime_error("fromCsv: missing column " + name);
        return it->second;
    };

    // Validate the header up front: every stored (non-derived)
    // column must be present even when there are no data rows.
    for (const std::string &name : csvColumns(false))
        need(name);

    ResultSet out;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::vector<std::string> cells = splitCsvLine(line);
        if (cells.size() < header.size())
            throw std::runtime_error("fromCsv: short row: " + line);
        auto cell = [&](const std::string &name) -> const std::string & {
            return cells[need(name)];
        };
        // Integers take the strict decimal rule of the command line:
        // no sign, blank or trailing garbage, no wrap-around.
        auto u64 = CliParser::parseU64;

        ResultRow r;
        try {
            r.bench = cell("bench");
            r.cfg = SimConfig::fromSpec(cell("spec"));
            r.cfg.width = static_cast<unsigned>(u64(cell("width")));
            r.cfg.optimizedLayout = cell("layout") == "opt";
            r.cfg.insts = u64(cell("insts"));
            r.cfg.warmupInsts = u64(cell("warmup"));
            forEachValue(true, [&](const SimStatField &f, std::size_t i) {
                const std::string &text = cell(csvColumn(f, i));
                if (f.kind == SimStatField::Kind::Rate)
                    r.stats.*f.rate = toD(text);
                else
                    f.u64(r.stats, i) = u64(text);
            });
        } catch (const std::invalid_argument &e) {
            throw std::runtime_error(std::string("fromCsv: ") + e.what());
        }
        r.wallSeconds = toD(cell("wall_seconds"));
        out.add(std::move(r));
    }
    return out;
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

std::string
rowJson(const ResultRow &r)
{
    std::ostringstream os;
    const SimConfig &c = r.cfg;
    os << "{\"bench\": \"" << jsonEscape(r.bench) << "\", "
       << "\"config\": {"
       << "\"spec\": \"" << jsonEscape(c.specText()) << "\", "
       << "\"arch\": \"" << jsonEscape(c.arch()) << "\", "
       << "\"params\": " << c.params().toJson() << ", "
       << "\"width\": " << c.width << ", "
       << "\"layout\": \"" << (c.optimizedLayout ? "opt" : "base")
       << "\", "
       << "\"insts\": " << u2s(c.insts) << ", "
       << "\"warmup\": " << u2s(c.warmupInsts) << "}, "
       << "\"stats\": {";
    for (const SimStatField &f : kSimStatFields) {
        const bool array = f.kind == SimStatField::Kind::ByType;
        os << '"' << f.name << "\": " << (array ? "[" : "");
        for (std::size_t i = 0; i < f.arity; ++i)
            os << (i ? ", " : "") << valueText(f, r.stats, i);
        os << (array ? "], " : ", ");
    }
    os << "\"engine\": {";
    std::size_t k = 0;
    for (const auto &[name, val] : r.stats.engine.all())
        os << (k++ ? ", " : "") << "\"" << jsonEscape(name)
           << "\": " << d2s(val);
    os << "}}, \"wall_seconds\": " << d2s(r.wallSeconds) << "}";
    return os.str();
}

std::string
ResultSet::rowJson(std::size_t i) const
{
    return sfetch::rowJson(rows_.at(i));
}

std::string
ResultSet::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"wall_seconds\": " << d2s(wallSeconds_)
       << ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i)
        os << (i ? "," : "") << "\n    " << rowJson(i);
    os << "\n  ]\n}\n";
    return os.str();
}

ResultSet
ResultSet::fromJson(const std::string &text)
{
    JsonValue doc = JsonReader(text).parse();
    ResultSet out;
    out.setWallSeconds(doc.at("wall_seconds").asNumber());
    for (const JsonValue &jr : doc.at("rows").array) {
        ResultRow r;
        r.bench = jr.at("bench").asString();

        const JsonValue &jc = jr.at("config");
        // `spec` is authoritative; build the config from it, then
        // apply any explicit `params` entries (supports hand-edited
        // documents that only set `arch` + `params`). An unknown or
        // out-of-range value is refused naming its key.
        const JsonValue *spec = jc.find("spec");
        try {
            r.cfg = SimConfig::fromSpec(
                spec ? spec->asString() : jc.at("arch").asString());
            ParamSet &p = r.cfg.params();
            if (const JsonValue *params = jc.find("params"))
                for (const auto &[key, val] : params->object) {
                    if (val.kind == JsonValue::Kind::Number)
                        p.setInt(key, paramInt(key, val.number));
                    else if (val.kind == JsonValue::Kind::Bool)
                        p.setBool(key, val.boolean);
                    else if (val.kind == JsonValue::Kind::String)
                        p.setString(key, val.string);
                    else
                        throw std::runtime_error(
                            "fromJson: bad param value for '" + key +
                            "'");
                }
        } catch (const std::invalid_argument &e) {
            throw std::runtime_error(std::string("fromJson: ") + e.what());
        }
        r.cfg.width = static_cast<unsigned>(jc.at("width").asU64());
        r.cfg.optimizedLayout = jc.at("layout").asString() == "opt";
        r.cfg.insts = jc.at("insts").asU64();
        r.cfg.warmupInsts = jc.at("warmup").asU64();

        const JsonValue &js = jr.at("stats");
        forEachValue(true, [&](const SimStatField &f, std::size_t i) {
            const JsonValue &v = js.at(f.name);
            if (f.kind == SimStatField::Kind::Rate)
                r.stats.*f.rate = v.asNumber();
            else if (f.kind == SimStatField::Kind::Count)
                f.u64(r.stats, i) = v.asU64();
            else if (v.array.size() != f.arity)
                throw std::runtime_error(std::string("fromJson: bad ") +
                                         f.name + " arity");
            else
                f.u64(r.stats, i) = v.array[i].asU64();
        });
        for (const auto &[name, val] : js.at("engine").object)
            r.stats.engine.set(name, val.asNumber());

        r.wallSeconds = jr.at("wall_seconds").asNumber();
        out.add(std::move(r));
    }
    return out;
}

bool
emitMachineReadable(const ResultSet &rs, OutputFormat fmt)
{
    switch (fmt) {
      case OutputFormat::Table:
        return false;
      case OutputFormat::Csv:
        std::fputs(rs.toCsv().c_str(), stdout);
        return true;
      case OutputFormat::Json:
        std::fputs(rs.toJson().c_str(), stdout);
        return true;
    }
    return false;
}

} // namespace sfetch
