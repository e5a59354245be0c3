/**
 * @file
 * Socket plumbing for the sfetchd protocol: listener and connector
 * helpers for both supported transports plus LineChannel, a buffered
 * newline-delimited reader/writer over one connected fd. The
 * protocol unit is a line of JSON, so this is the only transport
 * surface the server, the client library, and the tests need.
 *
 * Transports share one address grammar:
 *
 *     unix:PATH        Unix-domain stream socket at PATH
 *     tcp:HOST:PORT    TCP socket (HOST may be a name, an IPv4/IPv6
 *                      literal, or "[v6]"; an empty HOST listens on
 *                      every interface; PORT 0 binds an ephemeral
 *                      port for listeners)
 *     PATH             bare text without a scheme is a Unix path
 *
 * Deadlines: a LineChannel can carry per-call read and write
 * timeouts (poll()-based), so a stalled or dead peer surfaces as a
 * failed call with timedOut() set instead of wedging the calling
 * thread forever. sfetchd maps these onto --idle-timeout (time
 * between client requests) and --write-timeout (time to accept one
 * streamed line). Both transports ride the same deadline layer and
 * the same fault-injection sites.
 */

#ifndef SFETCH_SERVE_SOCKET_IO_HH
#define SFETCH_SERVE_SOCKET_IO_HH

#include <cstdint>
#include <string>

namespace sfetch
{

/** One parsed listen/connect address (see the grammar above). */
struct SocketAddr
{
    enum class Kind
    {
        Unix,
        Tcp
    };

    Kind kind = Kind::Unix;
    std::string path;        //!< Unix: filesystem path
    std::string host;        //!< TCP: node ("" = all interfaces)
    std::uint16_t port = 0;  //!< TCP: port (0 = ephemeral listen)

    /** Canonical text: "unix:PATH" or "tcp:HOST:PORT". */
    std::string text() const;
};

/**
 * Parse the `unix:PATH | tcp:HOST:PORT | PATH` grammar. Throws
 * std::invalid_argument on an empty path, a missing or non-numeric
 * port, or a port out of range — address typos must fail loudly, not
 * connect somewhere surprising.
 */
SocketAddr parseSocketAddr(const std::string &text);

/**
 * Bind and listen on a Unix-domain socket at @p path. A stale
 * *socket* file from a previous run is unlinked first; any existing
 * non-socket file at the path is an error (a typo'd --listen must
 * never delete a real file). Other failures throw
 * std::runtime_error. Returns the listening fd (caller closes).
 */
int listenUnix(const std::string &path, int backlog = 16);

/**
 * Connect to the Unix socket at @p path; throws std::runtime_error
 * on failure. Returns the connected fd (caller closes). A positive
 * @p timeout_ms bounds the connect itself (non-blocking connect +
 * poll): a wedged listener backlog surfaces as a timeout error
 * instead of hanging the caller. <=0 = blocking connect.
 */
int connectUnix(const std::string &path, int timeout_ms = 0);

/**
 * Bind and listen on TCP @p host:@p port (empty host = every
 * interface, port 0 = kernel-assigned). SO_REUSEADDR is set so a
 * restarting daemon does not trip over TIME_WAIT. Throws
 * std::runtime_error on failure. Returns the listening fd.
 */
int listenTcp(const std::string &host, std::uint16_t port,
              int backlog = 16);

/**
 * Connect to TCP @p host:@p port; throws std::runtime_error on
 * failure (same socket.connect fault-injection site as Unix). A
 * positive @p timeout_ms bounds the connect (non-blocking connect +
 * poll + SO_ERROR) so a blackholed host — packets dropped, no RST —
 * costs a bounded wait, not a kernel-default TCP timeout. The fleet
 * prober depends on this. <=0 = blocking connect.
 */
int connectTcp(const std::string &host, std::uint16_t port,
               int timeout_ms = 0);

/** Listen on @p addr via the matching transport. */
int listenSocket(const SocketAddr &addr, int backlog = 16);

/** Connect to @p addr via the matching transport (optionally under a
 * connect deadline — see connectTcp/connectUnix). */
int connectSocket(const SocketAddr &addr, int timeout_ms = 0);

/**
 * The address @p fd actually listens on: @p requested with an
 * ephemeral port 0 resolved to the bound port (getsockname). For
 * Unix addresses this is just the canonical form of @p requested.
 */
SocketAddr boundAddr(int fd, const SocketAddr &requested);

/**
 * Newline-delimited IO over one connected socket. Owns the fd.
 * readLine() blocks (up to the read deadline, when one is set);
 * shutdownRead() from another thread wakes it with EOF so connection
 * threads can be collected on server stop. Writes use MSG_NOSIGNAL —
 * a vanished peer surfaces as a false return, never SIGPIPE.
 */
class LineChannel
{
  public:
    /** Longest accepted input line; longer input is a dead channel
     * (a line-oriented protocol peer sending megabytes without a
     * newline is not speaking the protocol). */
    static constexpr std::size_t kMaxLine = 1u << 20;

    explicit LineChannel(int fd) : fd_(fd) {}
    ~LineChannel();

    LineChannel(const LineChannel &) = delete;
    LineChannel &operator=(const LineChannel &) = delete;

    /**
     * Deadline for one readLine() call, milliseconds; <= 0 blocks
     * forever (the default). On expiry readLine() returns false with
     * timedOut() set.
     */
    void setReadTimeout(int ms) { readTimeoutMs_ = ms; }

    /** Deadline for one writeLine() call; <= 0 blocks forever. */
    void setWriteTimeout(int ms) { writeTimeoutMs_ = ms; }

    /**
     * Read the next '\n'-terminated line (terminator stripped) into
     * @p line. False on EOF, error, deadline expiry, or an over-long
     * line — the channel is then finished (except for a pure
     * timeout, after which the peer may still be written to).
     */
    bool readLine(std::string &line);

    /** Write @p line plus '\n'; false when the peer is gone or the
     * write deadline expired. */
    bool writeLine(const std::string &line);

    /** True when the most recent failed readLine()/writeLine() fell
     * to its deadline rather than EOF or a socket error. */
    bool timedOut() const { return timedOut_; }

    /** Wake a blocked readLine() with EOF; writes stay usable. */
    void shutdownRead();

    /**
     * Stable identity of the peer, for per-client accounting:
     * "uid.pid" from SO_PEERCRED on Unix sockets, "HOST:PORT" of the
     * remote endpoint on TCP (every remote connection is its own
     * client). Empty only when the platform cannot say — callers
     * treat that as "no identity", never as one shared bucket.
     */
    std::string peerId() const;

    int fd() const { return fd_; }

  private:
    /** poll() for @p events within @p deadline_ms (<=0 = forever).
     * True when ready; false with timedOut_ set on expiry. */
    bool waitReady(short events, int deadline_ms);

    int fd_;
    int readTimeoutMs_ = 0;
    int writeTimeoutMs_ = 0;
    bool timedOut_ = false;
    std::string buf_;
};

} // namespace sfetch

#endif // SFETCH_SERVE_SOCKET_IO_HH
