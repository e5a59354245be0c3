/**
 * @file
 * Reproduces the paper table, figure or ablation named by the first
 * argument (`paper fig8 --bench gzip`); `paper` alone lists them.
 */

#include <cstdio>
#include <string>

#include "sim/artifacts.hh"

using namespace sfetch;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "";
    const PaperArtifact *a = nullptr;
    for (const PaperArtifact &p : paperArtifacts())
        if (name == p.name)
            a = &p;
    if (!a) {
        const bool help = name == "--help" || name == "-h";
        std::FILE *out = help ? stdout : stderr;
        if (!help && !name.empty())
            std::fprintf(out, "paper: unknown artifact '%s'\n", name.c_str());
        std::fputs("usage: paper NAME [options]\nartifacts:\n", out);
        for (const PaperArtifact &p : paperArtifacts())
            std::fprintf(out, "  %-15s %s\n", p.name, p.title);
        return help ? 0 : 2;
    }
    const CliOptions opts = parseArtifactArgs(*a, argc - 1, argv + 1);
    return runMain(std::string("paper ") + a->name, [&] {
        std::fputs(runArtifact(*a, opts).c_str(), stdout);
        return 0;
    });
}
