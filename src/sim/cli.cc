#include "sim/cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "fetch/fetch_engine.hh"
#include "sim/engine_registry.hh"
#include "workload/workload_registry.hh"

namespace sfetch
{

namespace
{

/** @p reg's `--list-*` flag: print its listing, then exit 0. */
template <class Registry>
void
addListFlag(CliParser &cli, const Registry &reg, const std::string &help)
{
    cli.addFlag(reg.kind().listFlag, help, [&reg] {
        std::fputs(reg.listText().c_str(), stdout);
        std::exit(0);
    });
}

} // namespace

std::vector<SimConfig>
CliOptions::archsOrPaperSet() const
{
    return archs.empty() ? paperArchConfigs() : archs;
}

CliParser::CliParser(std::string prog, std::string summary)
    : prog_(std::move(prog)), summary_(std::move(summary))
{
    addFlag("--help", "show this help and exit", [this] {
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    });
}

std::uint64_t
CliParser::parseU64(const std::string &text)
{
    // strtoull alone is not enough: it accepts leading whitespace
    // and a '-' sign (negating into a huge value), stops silently at
    // the first non-digit ("5x" -> 5), and wraps on overflow unless
    // errno is checked. Require pure digits and check ERANGE.
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument("bad number '" + text + "'");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        throw std::invalid_argument("bad number '" + text + "'");
    if (errno == ERANGE)
        throw std::invalid_argument("number out of range '" + text +
                                    "'");
    return v;
}

std::vector<unsigned>
CliParser::parseUnsignedList(const std::string &text)
{
    std::vector<unsigned> out;
    std::stringstream ss(text);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        if (tok.empty())
            continue;
        const std::uint64_t v = parseU64(tok);
        if (v > std::numeric_limits<unsigned>::max())
            throw std::invalid_argument("number out of range '" +
                                        tok + "'");
        out.push_back(static_cast<unsigned>(v));
    }
    if (out.empty())
        throw std::invalid_argument("empty list '" + text + "'");
    return out;
}

std::vector<unsigned>
CliParser::parseWidthList(const std::string &text)
{
    std::vector<unsigned> widths = parseUnsignedList(text);
    for (unsigned w : widths)
        checkedWidth(w);
    return widths;
}

unsigned
checkedWidth(std::uint64_t width)
{
    if (width == 0 || width > FetchBundle::kCapacity)
        throw std::invalid_argument(
            "width " + std::to_string(width) + " is outside 1.." +
            std::to_string(FetchBundle::kCapacity));
    return static_cast<unsigned>(width);
}

std::vector<std::string>
CliParser::parseNameList(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string tok;
    while (std::getline(ss, tok, ','))
        if (!tok.empty())
            out.push_back(tok);
    if (out.empty())
        throw std::invalid_argument("empty list '" + text + "'");
    return out;
}

std::vector<std::string>
resolveBenches(const std::vector<std::string> &requested)
{
    if (requested.empty())
        return suiteNames();
    if (requested.size() == 1 && requested[0] == "all")
        return suiteNames();
    std::vector<std::string> out;
    out.reserve(requested.size());
    for (const std::string &spec : requested)
        out.push_back(canonicalBenchSpec(spec)); // throws on unknown
    return out;
}

std::string
requireSingleBench(const CliOptions &opts, const char *prog)
{
    if (opts.benches.size() != 1) {
        std::fprintf(stderr,
                     "%s: takes exactly one benchmark, got %zu "
                     "(--bench with a single name)\n",
                     prog, opts.benches.size());
        std::exit(2);
    }
    return opts.benches.front();
}

void
CliParser::addStandard(CliOptions *opts, unsigned mask)
{
    if (mask & kInsts)
        addOption("--insts", "N", "measured instructions per run",
                  [opts](const std::string &v) {
                      opts->insts = parseU64(v);
                      if (opts->insts == 0)
                          throw std::invalid_argument(
                              "--insts must be positive");
                  });
    if (mask & kWarmup)
        addOption("--warmup", "N",
                  "warmup instructions (default: insts/5)",
                  [opts](const std::string &v) {
                      opts->warmupInsts = parseU64(v);
                      opts->warmupSet = true;
                  });
    if (mask & kWidths)
        addOption("--widths", "W,W,...",
                  "comma-separated pipe widths (2, 4, 8)",
                  [opts](const std::string &v) {
                      opts->widths = parseWidthList(v);
                  });
    if (mask & kBench) {
        addOption("--bench", "SPEC[,SPEC...]",
                  "workload specs: suite names, 'all', or "
                  "`family[:key=v,...]` (see --list-benches)",
                  [opts](const std::string &v) {
                      // parseBenchSpecList canonicalizes and
                      // validates (bad specs die cleanly here);
                      // the binary's resolveBenches() call expands
                      // 'all' and empty defaults.
                      opts->benches = parseBenchSpecList(v);
                  });
        addListFlag(*this, WorkloadRegistry::instance(),
                    "list the registered workload families, their "
                    "parameters and the suite presets, then exit");
    }
    if (mask & kJobs)
        addOption("--jobs", "N",
                  "worker threads (default: all hardware threads)",
                  [opts](const std::string &v) {
                      const std::uint64_t n = parseU64(v);
                      if (n == 0 ||
                          n > std::numeric_limits<unsigned>::max())
                          throw std::invalid_argument(
                              "--jobs must be a positive thread "
                              "count");
                      opts->jobs = static_cast<unsigned>(n);
                  });
    if (mask & kFormat)
        addOption("--format", "table|csv|json",
                  "output format (default: table)",
                  [opts](const std::string &v) {
                      opts->format = parseFormat(v);
                  });
    if (mask & kArch) {
        addOption("--arch", "SPEC[,SPEC...]",
                  "engine specs `arch[:key=v,...]`, e.g. "
                  "ev8,stream:ftq=8 (see --list-archs)",
                  [opts](const std::string &v) {
                      opts->archs = parseArchSpecList(v);
                  });
        addListFlag(*this, EngineRegistry::instance(),
                    "list the registered fetch engines and their "
                    "parameters, then exit");
    }
}

void
CliParser::addOption(const std::string &name,
                     const std::string &metavar,
                     const std::string &help,
                     std::function<void(const std::string &)> parse)
{
    options_.push_back({name, metavar, help, std::move(parse)});
}

void
CliParser::addFlag(const std::string &name, const std::string &help,
                   std::function<void()> set)
{
    options_.push_back({name, "", help,
                        [set = std::move(set)](const std::string &) {
                            set();
                        }});
}

void
CliParser::onPositional(const std::string &metavar,
                        const std::string &help,
                        std::function<void(const std::string &)> parse)
{
    positionalMeta_ = metavar;
    positionalHelp_ = help;
    positional_ = std::move(parse);
}

const CliParser::Option *
CliParser::findOption(const std::string &name) const
{
    for (const Option &opt : options_)
        if (opt.name == name)
            return &opt;
    return nullptr;
}

std::string
CliParser::usage() const
{
    std::ostringstream os;
    os << "usage: " << prog_ << " [options]";
    if (positional_)
        os << " " << positionalMeta_;
    os << "\n" << summary_ << "\n\noptions:\n";
    for (const Option &opt : options_) {
        std::string lhs = "  " + opt.name;
        if (!opt.metavar.empty())
            lhs += " " + opt.metavar;
        os << lhs;
        if (lhs.size() < 28)
            os << std::string(28 - lhs.size(), ' ');
        else
            os << "\n" << std::string(28, ' ');
        os << opt.help << "\n";
    }
    if (positional_)
        os << "  " << positionalMeta_ << ": " << positionalHelp_
           << "\n";
    return os.str();
}

void
CliParser::parseOrExit(int argc, char **argv)
{
    auto die = [this](const std::string &msg) {
        std::fprintf(stderr, "%s: %s\n%s", prog_.c_str(), msg.c_str(),
                     usage().c_str());
        std::exit(2);
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
            const Option *opt = findOption(arg);
            if (!opt)
                die("unknown option '" + arg + "'");
            std::string value;
            if (!opt->metavar.empty()) {
                if (i + 1 >= argc)
                    die("option '" + arg + "' needs a value");
                value = argv[++i];
            }
            try {
                opt->parse(value);
            } catch (const std::exception &e) {
                die(arg + ": " + e.what());
            }
        } else if (arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            std::exit(0);
        } else if (positional_) {
            try {
                positional_(arg);
            } catch (const std::exception &e) {
                die("'" + arg + "': " + e.what());
            }
        } else {
            die("unexpected argument '" + arg + "'");
        }
    }
}

int
runMain(const std::string &tool, const std::function<int()> &body)
{
    try {
        return body();
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\n", tool.c_str(), e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", tool.c_str(), e.what());
        return 1;
    }
}

} // namespace sfetch
