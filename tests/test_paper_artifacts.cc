/**
 * @file
 * Tests for the declared paper artifacts (sim/artifacts.hh): every
 * artifact runs end to end on a short gzip sweep, renders the same
 * text serially and in parallel, prints one table row per declared
 * variant, and dumps rows that parse back one per grid point.
 */

#include <gtest/gtest.h>

#include <bitset>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/artifacts.hh"

using namespace sfetch;

namespace
{

/** parseArtifactArgs() over @p args, which follow the name. */
CliOptions
parse(const PaperArtifact &a, std::vector<std::string> args)
{
    args.insert(args.begin(), a.name);
    std::vector<char *> argv;
    for (std::string &s : args)
        argv.push_back(s.data());
    return parseArtifactArgs(a, int(argv.size()), argv.data());
}

CliOptions
shortRun(const PaperArtifact &a, const char *jobs)
{
    return parse(a, {"--insts", "5000", "--bench", "gzip", "--jobs", jobs});
}

/**
 * Data rows of every table in @p text: the lines after a header and
 * its dashed underline, up to a blank line or the next "---- "
 * caption, skipping separator lines.
 */
std::size_t
tableRows(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    auto dashes = [](const std::string &l) {
        return !l.empty() && l.find_first_not_of('-') == std::string::npos;
    };
    std::size_t rows = 0;
    bool in_table = false;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &l = lines[i];
        if (l.empty() || l.rfind("---- ", 0) == 0) {
            in_table = false;
        } else if (!in_table && i + 1 < lines.size() &&
                   dashes(lines[i + 1])) {
            in_table = true; // a header; its underline follows
            ++i;
        } else if (in_table && !dashes(l)) {
            ++rows;
        }
    }
    return rows;
}

std::size_t
archCount(const PaperArtifact &a)
{
    return a.archs ? parseArchSpecList(a.archs).size()
                   : paperArchConfigs().size();
}

std::size_t
variantCount(const PaperArtifact &a)
{
    return a.variants.empty() ? 1 : a.variants.size();
}

/** Runs per (width, arch): each variant on each of its layouts. */
std::size_t
layoutRuns(const PaperArtifact &a)
{
    if (a.variants.empty())
        return std::bitset<2>(a.layouts).count();
    std::size_t n = 0;
    for (const ArtifactVariant &v : a.variants)
        n += std::bitset<2>(v.layouts ? v.layouts : a.layouts).count();
    return n;
}

} // namespace

TEST(PaperArtifacts, NamesAreUniqueAndEveryPaperArtifactIsDeclared)
{
    std::vector<std::string> names;
    for (const PaperArtifact &a : paperArtifacts())
        names.push_back(a.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "table1", "table3", "fig8", "fig9", "predictor",
                         "ftq", "linewidth", "partial_match", "layout"}));
}

TEST(PaperArtifacts, ParallelRenderIsIdenticalWithOneRowPerVariant)
{
    for (const PaperArtifact &a : paperArtifacts()) {
        SCOPED_TRACE(a.name);
        const std::string serial = runArtifact(a, shortRun(a, "1"));
        EXPECT_EQ(serial, runArtifact(a, shortRun(a, "4")));

        std::size_t expected;
        if (std::string(a.name) == "table1")
            expected = 2 * 3; // two layouts x three fetch units
        else if (std::string(a.name) == "layout")
            expected = 3; // three code orders
        else if (a.split == ArtifactSplit::PerBench)
            expected = 1 + 1; // gzip plus the Hmean row
        else
            expected = a.widths.size() * archCount(a) * variantCount(a);
        EXPECT_EQ(tableRows(serial), expected) << serial;
    }
}

TEST(PaperArtifacts, JsonRowsParseBackOnePerGridPoint)
{
    for (const PaperArtifact &a : paperArtifacts()) {
        if (a.run)
            continue; // not an engine sweep: no rows to dump
        SCOPED_TRACE(a.name);
        CliOptions opts = shortRun(a, "2");
        opts.format = OutputFormat::Json;
        const ResultSet rs = ResultSet::fromJson(runArtifact(a, opts));
        EXPECT_EQ(rs.size(),
                  a.widths.size() * archCount(a) * layoutRuns(a));
        for (const ResultRow &r : rs.rows())
            EXPECT_EQ(r.bench, "gzip");
    }
}

TEST(PaperArtifacts, OptionsAnArtifactCannotHonourAreUsageErrors)
{
    const PaperArtifact *table1 = &paperArtifacts().front();
    ASSERT_STREQ(table1->name, "table1");
    EXPECT_EXIT(parse(*table1, {"--format", "json"}),
                ::testing::ExitedWithCode(2), "unknown option");

    for (const PaperArtifact &a : paperArtifacts()) {
        if (std::string(a.name) == "predictor") {
            EXPECT_EXIT(parse(a, {"--arch", "ev8"}),
                        ::testing::ExitedWithCode(2), "unknown option");
        }
        if (std::string(a.name) == "ftq") {
            // The FTQ sweep needs an engine with an ftq parameter.
            CliOptions opts = parse(a, {"--insts", "1000", "--bench",
                                        "gzip", "--arch", "ev8"});
            EXPECT_THROW(runArtifact(a, opts), std::invalid_argument);
        }
    }
}
