/**
 * @file
 * The paper's artifacts (Tables 1 and 3, Figures 8 and 9, the
 * ablations), each declared once as data: the sweep grid it runs and
 * the table it prints, which one renderer turns into text. Table 1
 * (an oracle walk) and the layout study (custom code orders) are not
 * engine sweeps and bring their own run function instead of a grid.
 */

#ifndef SFETCH_SIM_ARTIFACTS_HH
#define SFETCH_SIM_ARTIFACTS_HH

#include <string>
#include <vector>

#include "sim/cli.hh"

namespace sfetch
{

/** Code-layout bitmask: bit 0 is the baseline, bit 1 optimized. */
enum : unsigned { kBaseLayout = 1u, kOptLayout = 2u, kBothLayouts = 3u };

/** One point on an artifact's variant axis, applied to every arch. */
struct ArtifactVariant
{
    const char *params;                  //!< `key=v,...` set on the arch
    std::vector<std::string> cells = {}; //!< row labels; none: arch label
    unsigned layouts = 0;                //!< 0: the artifact's layouts
};

enum class CellFormat { Fixed0, Fixed1, Fixed2, Fixed3, Percent };

/** One table column: a metric aggregated over a row's runs. */
struct ArtifactColumn
{
    const char *header;
    double (*metric)(const ResultRow &); //!< nullptr: ratio of previous two
    MeanKind mean;
    CellFormat format;
    unsigned layouts = 0; //!< runs pooled; 0: the row's layouts
    bool sum = false;     //!< total over the runs instead of a mean
};

enum class ArtifactSplit
{
    PerWidth, //!< a table per pipe width, a row per arch x variant
    PerArch,  //!< a table per arch, titled by it, a row per variant
    PerBench, //!< one table, a row per benchmark, a column per arch
};

/**
 * A grid artifact runs widths x archs x variants x layouts and keys
 * its rows on the full spec text; the rest bring a run function.
 */
struct PaperArtifact
{
    const char *name;  //!< as in `paper fig8 --insts ...`
    const char *title; //!< one-line summary for the usage text
    InstCount insts;   //!< default --insts
    unsigned cli;      //!< CliParser standard options it accepts
    const char *heading; //!< printf format: %1$llu insts, %2$zu benches
    std::string (*run)(const CliOptions &); //!< non-grid: all but heading
    std::vector<unsigned> widths = {};   //!< default --widths
    const char *archs = nullptr;         //!< default --arch; none: paper's
    unsigned layouts = kOptLayout;
    std::vector<ArtifactVariant> variants = {}; //!< none: the arch as is
    std::vector<std::string> labels = {};       //!< label column headers
    std::vector<ArtifactColumn> columns = {};
    ArtifactSplit split = ArtifactSplit::PerWidth;
    std::string (*caption)(unsigned width) = nullptr; //!< above a table
    const char *tableEnd = ""; //!< printed below each table
};

/** Every declared artifact, in the paper's order. */
const std::vector<PaperArtifact> &paperArtifacts();

/** Parse @p a's options (argv[0] is its name); exits on bad input. */
CliOptions parseArtifactArgs(const PaperArtifact &a, int argc,
                             char **argv);

/**
 * Run @p a: its tables, or its raw rows under --format csv|json.
 * Throws std::invalid_argument when a variant does not fit an engine.
 */
std::string runArtifact(const PaperArtifact &a, const CliOptions &opts);

} // namespace sfetch

#endif // SFETCH_SIM_ARTIFACTS_HH
