#include "sim/config.hh"

#include <stdexcept>

namespace sfetch
{

unsigned
defaultLineBytes(unsigned width)
{
    // Table 2: L1 inst line = 4x pipe width (32, 64, 128 bytes).
    return 4 * width * kInstBytes;
}

SimConfig::SimConfig() : SimConfig("stream") {}

SimConfig::SimConfig(const std::string &arch_token)
    : desc_(&EngineRegistry::instance().find(arch_token)),
      params_(&desc_->params)
{}

void
SimConfig::setArch(const std::string &arch_token)
{
    desc_ = &EngineRegistry::instance().find(arch_token);
    params_ = ParamSet(&desc_->params);
}

SimConfig
SimConfig::fromSpec(const std::string &spec)
{
    ParamSet params;
    SimConfig cfg(EngineRegistry::instance().parse(spec, params).token);
    cfg.params_ = std::move(params);
    // Reject bad line overrides at parse time, where the CLI turns
    // them into a clean exit(2), not mid-sweep on a worker thread.
    if (cfg.params_.getInt("line") != 0)
        cfg.lineBytes();
    return cfg;
}

std::string
SimConfig::specText() const
{
    return formatSpec(arch(), params_);
}

std::string
SimConfig::label() const
{
    std::string params = params_.toSpecText();
    return params.empty() ? desc_->displayName
                          : desc_->displayName + " (" + params + ")";
}

unsigned
SimConfig::lineBytes() const
{
    auto line = static_cast<unsigned>(params_.getInt("line"));
    if (line == 0)
        return defaultLineBytes(width);
    if ((line & (line - 1)) != 0 || line < kInstBytes)
        throw std::invalid_argument(
            "line=" + std::to_string(line) +
            ": i-cache line bytes must be a power of two >= " +
            std::to_string(kInstBytes));
    return line;
}

std::unique_ptr<FetchEngine>
SimConfig::makeEngine(const CodeImage &image,
                      MemoryHierarchy *mem) const
{
    // Hand the factory a fully-resolved parameter set: the width-
    // dependent line default is an experiment-level concern no
    // engine should re-derive.
    ParamSet resolved = params_;
    resolved.setInt("line", lineBytes());
    return desc_->factory(resolved, image, mem);
}

bool
operator==(const SimConfig &a, const SimConfig &b)
{
    return a.arch() == b.arch() && a.params() == b.params() &&
        a.width == b.width &&
        a.optimizedLayout == b.optimizedLayout &&
        a.insts == b.insts && a.warmupInsts == b.warmupInsts;
}

std::vector<SimConfig>
parseArchSpecList(const std::string &text)
{
    std::vector<std::string> specs = splitSpecList(text);
    std::vector<SimConfig> out;
    out.reserve(specs.size());
    for (const std::string &spec : specs)
        out.push_back(SimConfig::fromSpec(spec));
    return out;
}

std::vector<SimConfig>
paperArchConfigs()
{
    std::vector<SimConfig> out;
    for (const std::string &token :
         EngineRegistry::instance().paperTokens())
        out.push_back(SimConfig(token));
    return out;
}

} // namespace sfetch
