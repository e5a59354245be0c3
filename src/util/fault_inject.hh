/**
 * @file
 * Deterministic fault-injection harness for the serve stack's
 * failure paths. Production code wraps each fallible effect (socket
 * syscalls, journal writes/fsyncs, arena allocation, a simulation
 * run) in a named *injection point*:
 *
 *     if (SFETCH_FAULT("socket.send"))
 *         return false;               // behave exactly like a failure
 *
 * With the SFETCH_FAULT_INJECT build option OFF the macro is the
 * literal `false` and the whole harness compiles away. With it ON
 * (the default — every site is off the simulation hot loop) a site
 * still costs one predictable branch until a test *arms* it:
 *
 *     fault::arm("socket.send", 2);      // fail the 3rd occurrence
 *     fault::arm("journal.fsync", 0, 4); // fail the next 4
 *     fault::armRate("socket.recv", 0.25, seed); // seeded Bernoulli
 *
 * Injection is fully deterministic: counted triggers fire on exact
 * occurrence indices, and rate triggers draw from a private Pcg32
 * stream seeded by the caller, so a failing fuzz configuration is
 * replayable from (site, rate, seed) alone. Sites also count every
 * evaluation (armed or not), which tests use to prove a path was
 * actually exercised.
 *
 * The environment variable SFETCH_FAULT arms sites in external
 * processes (the CI daemon smoke):  "site=skip[,times];site2=..."
 * e.g. SFETCH_FAULT="journal.fsync=0,1" fails the first fsync.
 *
 * kKnownSites lists every injection point compiled into the library;
 * the fault suite iterates it so a new site cannot be added without
 * either registering it here (and being exercised) or failing the
 * registry test.
 */

#ifndef SFETCH_UTIL_FAULT_INJECT_HH
#define SFETCH_UTIL_FAULT_INJECT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sfetch
{
namespace fault
{

/** Every injection point compiled into libsfetch, for test sweeps. */
constexpr const char *kKnownSites[] = {
    "socket.connect", //!< connectUnix(): connect() fails
    "socket.recv",    //!< LineChannel::readLine(): peer vanished
    "socket.send",    //!< LineChannel::writeLine(): peer vanished
    "journal.append", //!< JobJournal append write fails
    "journal.fsync",  //!< JobJournal fdatasync fails
    "arena.alloc",    //!< OracleArena decode allocation fails
    "sim.run",        //!< runOn(): the run throws std::runtime_error
};

/** True when the harness was compiled in (SFETCH_FAULT_INJECT). */
bool compiledIn();

/**
 * Evaluate injection point @p site: increments its hit counter and
 * returns true when an armed trigger elects this occurrence to fail.
 * Never true for un-armed sites. (Call through SFETCH_FAULT so the
 * whole thing folds to `false` when compiled out.)
 */
bool shouldFail(const char *site);

/**
 * Arm a counted trigger: after skipping the next @p skip occurrences
 * of @p site, fail @p times of them, then disarm. Replaces any
 * existing trigger on the site.
 */
void arm(const std::string &site, std::uint64_t skip = 0,
         std::uint64_t times = 1);

/**
 * Arm a probabilistic trigger: each occurrence fails with
 * probability @p rate, drawn from a Pcg32 stream seeded with
 * @p seed — deterministic and replayable. Replaces any existing
 * trigger on the site.
 */
void armRate(const std::string &site, double rate,
             std::uint64_t seed);

/** Remove the trigger on @p site (hit counters survive). */
void disarm(const std::string &site);

/** Remove every trigger (hit counters survive). */
void disarmAll();

/** Occurrences of @p site evaluated so far (armed or not). */
std::uint64_t hits(const std::string &site);

/** Failures actually injected at @p site so far. */
std::uint64_t fired(const std::string &site);

/**
 * Parse and apply an SFETCH_FAULT-style spec
 * ("site=skip[,times];..."); throws std::invalid_argument on
 * malformed text or an unknown site.
 */
void configure(const std::string &spec);

/**
 * Apply the SFETCH_FAULT environment variable through configure(),
 * once per process; the first shouldFail() calls it otherwise.
 * Throws as configure() does, and throws again on every later call
 * until a call succeeds, so a process that wants a bad variable
 * refused at start-up calls this before it serves anything.
 */
void applyEnv();

} // namespace fault
} // namespace sfetch

#ifdef SFETCH_FAULT_INJECT
#define SFETCH_FAULT(site) (::sfetch::fault::shouldFail(site))
#else
#define SFETCH_FAULT(site) (false)
#endif

#endif // SFETCH_UTIL_FAULT_INJECT_HH
