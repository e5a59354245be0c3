/**
 * @file
 * MetricsRegistry: a daemon's named counters and gauges, each
 * declared once, by name, where it is owned. Replies are rendered by
 * walking the registry in declaration order; tests read a metric back
 * by the same name, and an unknown name throws rather than reading 0.
 *
 * A *counter* is an atomic the registry owns at a stable address: its
 * owner keeps the reference, so a hot path pays one atomic increment
 * and no lookup. A *gauge* is a read callback for a value owned
 * elsewhere (a cache's hit count, a queue depth); a *flag* is a gauge
 * rendered as a JSON bool. Each metric carries a mask of the replies
 * that show it.
 *
 * Metrics are declared while their owners are constructed, before any
 * thread reads the registry; the entry list never changes after that,
 * so reads take no lock. Gauge callbacks run on the reading thread.
 */

#ifndef SFETCH_UTIL_METRICS_HH
#define SFETCH_UTIL_METRICS_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>

namespace sfetch
{

class MetricsRegistry
{
  public:
    using Counter = std::atomic<std::uint64_t>;

    /** The replies a metric appears in (bit mask). */
    enum Scope : unsigned
    {
        kStats = 1,   //!< the `stats` verb (and its SIGUSR1 dump)
        kHealth = 2,  //!< the `health` verb a front's prober reads
        kWorkers = 4, //!< the `workers` verb
    };

    /** Declare a counter (zero); the reference lives as long as the
     * registry. Every declaration throws std::logic_error on a name
     * already taken. */
    Counter &counter(const std::string &name, unsigned scopes = kStats);

    void gauge(const std::string &name,
               std::function<std::uint64_t()> read,
               unsigned scopes = kStats);

    void flag(const std::string &name, std::function<bool()> read,
              unsigned scopes = kStats);

    /** Current value of @p name (a flag reads 0 or 1); throws
     * std::out_of_range when no metric has that name. */
    std::uint64_t value(const std::string &name) const;

    /** Call @p f(name, value, is_flag) for every metric in @p scope,
     * in declaration order. */
    template <class F>
    void
    forEach(unsigned scope, F &&f) const
    {
        for (const Entry &e : entries_)
            if (e.scopes & scope)
                f(e.name, e.read(), e.isFlag);
    }

  private:
    struct Entry
    {
        std::string name;
        unsigned scopes = 0;
        bool isFlag = false;
        std::function<std::uint64_t()> read;
        Counter counter{0}; //!< the value, for counters
    };

    Entry &declare(const std::string &name, unsigned scopes,
                   std::function<std::uint64_t()> read);

    std::deque<Entry> entries_; //!< a deque: entries never move
};

} // namespace sfetch

#endif // SFETCH_UTIL_METRICS_HH
