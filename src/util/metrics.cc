#include "util/metrics.hh"

#include <stdexcept>

namespace sfetch
{

MetricsRegistry::Entry &
MetricsRegistry::declare(const std::string &name, unsigned scopes,
                         std::function<std::uint64_t()> read)
{
    for (const Entry &e : entries_)
        if (e.name == name)
            throw std::logic_error("metric '" + name +
                                   "' declared twice");
    Entry &e = entries_.emplace_back();
    e.name = name;
    e.scopes = scopes;
    e.read = std::move(read);
    return e;
}

MetricsRegistry::Counter &
MetricsRegistry::counter(const std::string &name, unsigned scopes)
{
    Entry &e = declare(name, scopes, nullptr);
    e.read = [c = &e.counter] { return c->load(); };
    return e.counter;
}

void
MetricsRegistry::gauge(const std::string &name,
                       std::function<std::uint64_t()> read,
                       unsigned scopes)
{
    declare(name, scopes, std::move(read));
}

void
MetricsRegistry::flag(const std::string &name,
                      std::function<bool()> read, unsigned scopes)
{
    declare(name, scopes, [r = std::move(read)] {
        return std::uint64_t(r());
    }).isFlag = true;
}

std::uint64_t
MetricsRegistry::value(const std::string &name) const
{
    for (const Entry &e : entries_)
        if (e.name == name)
            return e.read();
    throw std::out_of_range("no metric named '" + name + "'");
}

} // namespace sfetch
