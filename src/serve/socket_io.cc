#include "serve/socket_io.hh"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/fault_inject.hh"

namespace sfetch
{

namespace
{

[[noreturn]] void
failErrno(const std::string &what, const std::string &path)
{
    throw std::runtime_error(what + " '" + path +
                             "': " + std::strerror(errno));
}

sockaddr_un
unixAddr(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() + 1 > sizeof(addr.sun_path))
        throw std::runtime_error("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Parse a decimal port; rejects empty text, trailing garbage, signs,
 * and values above 65535. The strict parse matters: "tcp:host:80x"
 * or "tcp:host:-1" must be a configuration error, not port 80 or a
 * silently wrapped value.
 */
std::uint16_t
parsePort(const std::string &text, const std::string &whole)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument("bad port in socket address '" +
                                    whole + "'");
    errno = 0;
    char *end = nullptr;
    unsigned long v = std::strtoul(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        v > 65535)
        throw std::invalid_argument("bad port in socket address '" +
                                    whole + "'");
    return static_cast<std::uint16_t>(v);
}

/**
 * connect(2) with an optional deadline: with @p timeout_ms > 0 the
 * socket is flipped non-blocking, the in-progress connect is waited
 * out with poll(POLLOUT), and SO_ERROR delivers the verdict — then
 * the socket goes back to blocking for the LineChannel layer. 0 on
 * success; -1 with errno set (ETIMEDOUT on deadline expiry).
 */
int
connectWithDeadline(int fd, const sockaddr *sa, socklen_t len,
                    int timeout_ms)
{
    if (timeout_ms <= 0)
        return ::connect(fd, sa, len);
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        return -1;
    int rc = ::connect(fd, sa, len);
    if (rc != 0 && (errno == EINPROGRESS || errno == EAGAIN)) {
        const std::int64_t deadline = nowMs() + timeout_ms;
        while (true) {
            const std::int64_t left = deadline - nowMs();
            if (left <= 0) {
                errno = ETIMEDOUT;
                return -1;
            }
            pollfd pfd{};
            pfd.fd = fd;
            pfd.events = POLLOUT;
            const int pr = ::poll(&pfd, 1, static_cast<int>(left));
            if (pr > 0)
                break;
            if (pr == 0) {
                errno = ETIMEDOUT;
                return -1;
            }
            if (errno != EINTR)
                return -1;
        }
        int soerr = 0;
        socklen_t slen = sizeof(soerr);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen) != 0)
            return -1;
        if (soerr != 0) {
            errno = soerr;
            return -1;
        }
        rc = 0;
    }
    if (rc == 0 && ::fcntl(fd, F_SETFL, flags) < 0)
        return -1;
    return rc;
}

} // namespace

std::string
SocketAddr::text() const
{
    if (kind == Kind::Unix)
        return "unix:" + path;
    const bool v6 = host.find(':') != std::string::npos;
    return "tcp:" + (v6 ? "[" + host + "]" : host) + ":" +
           std::to_string(port);
}

SocketAddr
parseSocketAddr(const std::string &text)
{
    SocketAddr addr;
    if (text.rfind("tcp:", 0) == 0) {
        addr.kind = SocketAddr::Kind::Tcp;
        std::string rest = text.substr(4);
        if (!rest.empty() && rest[0] == '[') {
            // "[v6-literal]:port"
            const std::size_t close = rest.find(']');
            if (close == std::string::npos || close + 1 >= rest.size() ||
                rest[close + 1] != ':')
                throw std::invalid_argument(
                    "bad socket address '" + text +
                    "' (expected tcp:[V6]:PORT)");
            addr.host = rest.substr(1, close - 1);
            addr.port = parsePort(rest.substr(close + 2), text);
            return addr;
        }
        // "host:port" — split on the last ':' so unbracketed text
        // with multiple colons still finds the port field.
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos)
            throw std::invalid_argument(
                "bad socket address '" + text +
                "' (expected tcp:HOST:PORT)");
        addr.host = rest.substr(0, colon);
        addr.port = parsePort(rest.substr(colon + 1), text);
        return addr;
    }
    addr.kind = SocketAddr::Kind::Unix;
    addr.path = text.rfind("unix:", 0) == 0 ? text.substr(5) : text;
    if (addr.path.empty())
        throw std::invalid_argument("empty socket path in address '" +
                                    text + "'");
    return addr;
}

int
listenUnix(const std::string &path, int backlog)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        failErrno("socket", path);
    sockaddr_un addr = unixAddr(path);
    // A stale socket file from a crashed or killed daemon would make
    // bind fail with EADDRINUSE forever, so remove it — but only when
    // it really is a socket. A typo'd --listen pointing at a regular
    // file must error out, never delete the file.
    struct stat st;
    if (::lstat(path.c_str(), &st) == 0) {
        if (!S_ISSOCK(st.st_mode)) {
            ::close(fd);
            throw std::runtime_error(
                "socket path '" + path +
                "' exists and is not a socket; refusing to replace it");
        }
        ::unlink(path.c_str());
    }
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        int saved = errno;
        ::close(fd);
        errno = saved;
        failErrno("bind", path);
    }
    if (::listen(fd, backlog) != 0) {
        int saved = errno;
        ::close(fd);
        ::unlink(path.c_str());
        errno = saved;
        failErrno("listen", path);
    }
    return fd;
}

int
connectUnix(const std::string &path, int timeout_ms)
{
    if (SFETCH_FAULT("socket.connect")) {
        errno = ECONNREFUSED;
        failErrno("connect", path);
    }
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        failErrno("socket", path);
    sockaddr_un addr = unixAddr(path);
    if (connectWithDeadline(fd,
                            reinterpret_cast<const sockaddr *>(&addr),
                            sizeof(addr), timeout_ms) != 0) {
        int saved = errno;
        ::close(fd);
        errno = saved;
        failErrno("connect", path);
    }
    return fd;
}

namespace
{

/** getaddrinfo over the host/port pair; throws on resolver failure. */
struct AddrInfoList
{
    addrinfo *head = nullptr;

    AddrInfoList(const std::string &host, std::uint16_t port,
                 bool passive)
    {
        addrinfo hints{};
        hints.ai_family = AF_UNSPEC;
        hints.ai_socktype = SOCK_STREAM;
        hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
        const std::string service = std::to_string(port);
        const int rc =
            ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                          service.c_str(), &hints, &head);
        if (rc != 0)
            throw std::runtime_error("resolve '" + host + ":" +
                                     service +
                                     "': " + ::gai_strerror(rc));
    }

    ~AddrInfoList()
    {
        if (head)
            ::freeaddrinfo(head);
    }

    AddrInfoList(const AddrInfoList &) = delete;
    AddrInfoList &operator=(const AddrInfoList &) = delete;
};

std::string
tcpName(const std::string &host, std::uint16_t port)
{
    return (host.empty() ? std::string("*") : host) + ":" +
           std::to_string(port);
}

} // namespace

int
listenTcp(const std::string &host, std::uint16_t port, int backlog)
{
    AddrInfoList res(host, port, /*passive=*/true);
    int lastErrno = 0;
    for (addrinfo *ai = res.head; ai; ai = ai->ai_next) {
        int fd = ::socket(ai->ai_family, ai->ai_socktype,
                          ai->ai_protocol);
        if (fd < 0) {
            lastErrno = errno;
            continue;
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, backlog) == 0)
            return fd;
        lastErrno = errno;
        ::close(fd);
    }
    errno = lastErrno ? lastErrno : EADDRNOTAVAIL;
    failErrno("listen", tcpName(host, port));
}

int
connectTcp(const std::string &host, std::uint16_t port,
           int timeout_ms)
{
    if (SFETCH_FAULT("socket.connect")) {
        errno = ECONNREFUSED;
        failErrno("connect", tcpName(host, port));
    }
    AddrInfoList res(host, port, /*passive=*/false);
    int lastErrno = 0;
    for (addrinfo *ai = res.head; ai; ai = ai->ai_next) {
        int fd = ::socket(ai->ai_family, ai->ai_socktype,
                          ai->ai_protocol);
        if (fd < 0) {
            lastErrno = errno;
            continue;
        }
        if (connectWithDeadline(fd, ai->ai_addr, ai->ai_addrlen,
                                timeout_ms) == 0) {
            // One protocol line per round trip: Nagle only adds
            // latency here.
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
            return fd;
        }
        lastErrno = errno;
        ::close(fd);
    }
    errno = lastErrno ? lastErrno : ECONNREFUSED;
    failErrno("connect", tcpName(host, port));
}

int
listenSocket(const SocketAddr &addr, int backlog)
{
    return addr.kind == SocketAddr::Kind::Unix
               ? listenUnix(addr.path, backlog)
               : listenTcp(addr.host, addr.port, backlog);
}

int
connectSocket(const SocketAddr &addr, int timeout_ms)
{
    return addr.kind == SocketAddr::Kind::Unix
               ? connectUnix(addr.path, timeout_ms)
               : connectTcp(addr.host, addr.port, timeout_ms);
}

SocketAddr
boundAddr(int fd, const SocketAddr &requested)
{
    SocketAddr out = requested;
    if (out.kind != SocketAddr::Kind::Tcp)
        return out;
    sockaddr_storage ss{};
    socklen_t len = sizeof(ss);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&ss), &len) ==
        0) {
        char host[NI_MAXHOST];
        char serv[NI_MAXSERV];
        if (::getnameinfo(reinterpret_cast<sockaddr *>(&ss), len,
                          host, sizeof(host), serv, sizeof(serv),
                          NI_NUMERICHOST | NI_NUMERICSERV) == 0) {
            // Keep a requested concrete host (clients should not be
            // told to dial the resolver's rewrite of it); always
            // adopt the bound port so an ephemeral listen reports
            // something dialable.
            if (out.host.empty())
                out.host = host;
            out.port = parsePort(serv, serv);
        }
    }
    return out;
}

LineChannel::~LineChannel()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
LineChannel::waitReady(short events, int deadline_ms)
{
    const std::int64_t deadline =
        deadline_ms > 0 ? nowMs() + deadline_ms : 0;
    while (true) {
        int wait = -1;
        if (deadline_ms > 0) {
            const std::int64_t left = deadline - nowMs();
            if (left <= 0) {
                timedOut_ = true;
                return false;
            }
            wait = static_cast<int>(left);
        }
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = events;
        const int rc = ::poll(&pfd, 1, wait);
        if (rc > 0)
            return true;
        if (rc == 0) {
            timedOut_ = true;
            return false;
        }
        if (errno != EINTR)
            return false;
    }
}

bool
LineChannel::readLine(std::string &line)
{
    timedOut_ = false;
    const std::int64_t deadline =
        readTimeoutMs_ > 0 ? nowMs() + readTimeoutMs_ : 0;
    while (true) {
        std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            line.assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            return true;
        }
        if (buf_.size() > kMaxLine)
            return false;
        if (SFETCH_FAULT("socket.recv"))
            return false;
        if (readTimeoutMs_ > 0) {
            const std::int64_t left = deadline - nowMs();
            if (left <= 0 ||
                !waitReady(POLLIN, static_cast<int>(left))) {
                if (left <= 0)
                    timedOut_ = true;
                return false;
            }
        }
        char chunk[4096];
        ssize_t n;
        do {
            n = ::recv(fd_, chunk, sizeof(chunk), 0);
        } while (n < 0 && errno == EINTR);
        if (n <= 0)
            return false;
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
LineChannel::writeLine(const std::string &line)
{
    timedOut_ = false;
    if (SFETCH_FAULT("socket.send"))
        return false;
    std::string framed = line;
    framed.push_back('\n');
    const std::int64_t deadline =
        writeTimeoutMs_ > 0 ? nowMs() + writeTimeoutMs_ : 0;
    std::size_t sent = 0;
    while (sent < framed.size()) {
        const int flags = MSG_NOSIGNAL |
                          (writeTimeoutMs_ > 0 ? MSG_DONTWAIT : 0);
        ssize_t n = ::send(fd_, framed.data() + sent,
                           framed.size() - sent, flags);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
            writeTimeoutMs_ > 0) {
            const std::int64_t left = deadline - nowMs();
            if (left <= 0 ||
                !waitReady(POLLOUT, static_cast<int>(left))) {
                if (left <= 0)
                    timedOut_ = true;
                return false;
            }
            continue;
        }
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

void
LineChannel::shutdownRead()
{
    ::shutdown(fd_, SHUT_RD);
}

std::string
LineChannel::peerId() const
{
    // Pick the identity source by address family, not by whichever
    // call happens to succeed: SO_PEERCRED on a Linux TCP socket
    // "succeeds" with uid -1 / pid 0, which would fold every TCP
    // client into one shared quota bucket — a single client could
    // then exhaust --max-jobs-per-client for the whole fleet.
    sockaddr_storage ss{};
    socklen_t slen = sizeof(ss);
    if (::getpeername(fd_, reinterpret_cast<sockaddr *>(&ss),
                      &slen) != 0)
        return {};
    if (ss.ss_family == AF_INET || ss.ss_family == AF_INET6) {
        char host[NI_MAXHOST];
        char serv[NI_MAXSERV];
        if (::getnameinfo(reinterpret_cast<sockaddr *>(&ss), slen,
                          host, sizeof(host), serv, sizeof(serv),
                          NI_NUMERICHOST | NI_NUMERICSERV) == 0)
            return std::string(host) + ":" + serv;
        return {};
    }
#ifdef SO_PEERCRED
    ucred cred{};
    socklen_t len = sizeof(cred);
    if (::getsockopt(fd_, SOL_SOCKET, SO_PEERCRED, &cred, &len) == 0)
        return std::to_string(cred.uid) + "." +
               std::to_string(cred.pid);
#endif
    return {};
}

} // namespace sfetch
