#include "serve/client.hh"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>

#include "common/logging.hh"

namespace thermctl::serve
{

namespace
{

/**
 * The endpoint parser: fill `addr` for "unix:PATH", "tcp:HOST:PORT" or
 * a bare Unix socket path. Malformed endpoints are reported in `error`,
 * never thrown — they arrive from command lines.
 */
bool
resolveEndpoint(const std::string &endpoint, sockaddr_storage &addr,
                socklen_t &len, std::string &error)
{
    if (endpoint.rfind("tcp:", 0) != 0) {
        const std::string path = endpoint.rfind("unix:", 0) == 0
                                     ? endpoint.substr(5)
                                     : endpoint;
        sockaddr_un un{};
        un.sun_family = AF_UNIX;
        if (path.size() >= sizeof(un.sun_path)) {
            error = "socket path too long: " + path;
            return false;
        }
        std::memcpy(un.sun_path, path.data(), path.size());
        std::memcpy(&addr, &un, sizeof(un));
        len = sizeof(un);
        return true;
    }

    const std::string rest = endpoint.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
        error = "tcp endpoint needs HOST:PORT: '" + endpoint + "'";
        return false;
    }
    const std::string host = rest.substr(0, colon);
    const char *first = rest.data() + colon + 1;
    const char *last = rest.data() + rest.size();
    unsigned port = 0;
    const auto [end, ec] = std::from_chars(first, last, port);
    if (ec != std::errc() || end != last || port == 0 || port > 65535) {
        error = "bad tcp port in '" + endpoint + "'";
        return false;
    }
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                      &res)
            != 0
        || !res) {
        error = "cannot resolve " + host + ":" + std::to_string(port);
        return false;
    }
    std::memcpy(&addr, res->ai_addr, res->ai_addrlen);
    len = res->ai_addrlen;
    ::freeaddrinfo(res);
    return true;
}

/**
 * Connect `fd` to `addr`. With `timeout_ms` 0 this is a plain blocking
 * connect. Otherwise the connect runs non-blocking and is abandoned
 * after `timeout_ms`; a Unix listener with a full backlog makes
 * ::connect fail with EAGAIN straight away — that is reported as a
 * failure, not waited out, so a wedged worker costs bounded time. On
 * success the socket is in blocking mode.
 */
bool
connectBounded(int fd, const sockaddr *addr, socklen_t len,
               unsigned timeout_ms, std::string &error)
{
    if (timeout_ms == 0) {
        if (::connect(fd, addr, len) == 0)
            return true;
        error = std::strerror(errno);
        return false;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        error = std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno);
        return false;
    }
    if (::connect(fd, addr, len) != 0) {
        if (errno != EINPROGRESS) {
            error = std::strerror(errno);
            return false;
        }
        const auto deadline = std::chrono::steady_clock::now()
                              + std::chrono::milliseconds(timeout_ms);
        for (;;) {
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
            if (left.count() <= 0) {
                error = "timed out after " + std::to_string(timeout_ms)
                        + " ms";
                return false;
            }
            pollfd p{};
            p.fd = fd;
            p.events = POLLOUT;
            const int rc = ::poll(&p, 1, int(left.count()));
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                error = std::string("poll: ") + std::strerror(errno);
                return false;
            }
            if (rc > 0)
                break;
        }
        int so_error = 0;
        socklen_t so_len = sizeof(so_error);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len)
                != 0
            || so_error != 0) {
            error = std::strerror(so_error ? so_error : errno);
            return false;
        }
    }
    if (::fcntl(fd, F_SETFL, flags) < 0) {
        error = std::string("fcntl(restore): ") + std::strerror(errno);
        return false;
    }
    return true;
}

/** The message type each reply struct arrives as (none for others). */
template <class Reply> constexpr MsgType kReplyType = MsgType::ErrorReply;
template <> constexpr MsgType kReplyType<RunReply> = MsgType::RunReply;
template <> constexpr MsgType kReplyType<SweepReply> = MsgType::SweepReply;
template <>
constexpr MsgType kReplyType<CacheQueryReply> = MsgType::CacheQueryReply;
template <> constexpr MsgType kReplyType<StatsReply> = MsgType::StatsReply;
template <> constexpr MsgType kReplyType<PingReply> = MsgType::PingReply;
template <> constexpr MsgType kReplyType<DrainReply> = MsgType::DrainReply;

/** A whole-request failure in the data plane's reply shape. */
PointReply
failedPoint(ServeError code, std::string message)
{
    PointReply p;
    p.error = code;
    p.message = std::move(message);
    return p;
}

} // namespace

int
dialEndpoint(const std::string &endpoint, unsigned timeout_ms,
             std::string &error)
{
    sockaddr_storage addr{};
    socklen_t len = 0;
    if (!resolveEndpoint(endpoint, addr, len, error))
        return -1;
    const int fd = ::socket(addr.ss_family, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    std::string cause;
    if (!connectBounded(fd, reinterpret_cast<const sockaddr *>(&addr), len,
                        timeout_ms, cause)) {
        ::close(fd);
        error = "cannot connect to " + endpoint + ": " + cause;
        return -1;
    }
    return fd;
}

ServeClient
ServeClient::connect(const std::string &endpoint)
{
    std::string error;
    ServeClient client = tryConnect(endpoint, 0, error);
    if (!client.connected())
        fatal("client: ", error);
    return client;
}

ServeClient
ServeClient::tryConnect(const std::string &endpoint, unsigned timeout_ms,
                        std::string &error)
{
    return ServeClient(dialEndpoint(endpoint, timeout_ms, error));
}

ServeClient::~ServeClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

ServeClient &
ServeClient::operator=(ServeClient &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
}

void
ServeClient::setRecvTimeout(unsigned ms)
{
    if (fd_ < 0)
        return;
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = suseconds_t(ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void
ServeClient::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

template <class Reply>
ServeError
ServeClient::call(MsgType type, std::string_view payload, Reply &out,
                  std::string &error)
{
    static_assert(kReplyType<Reply> != MsgType::ErrorReply,
                  "call<>() needs the reply's message type");
    if (fd_ < 0) {
        error = "not connected";
        return ServeError::Transport;
    }
    MsgType reply_type = MsgType::ErrorReply;
    std::string reply;
    FrameStatus fs = FrameStatus::Ok;
    const char *broken = nullptr;
    if (!writeFrame(fd_, type, payload)) {
        broken = "send failed (server gone?)";
    } else {
        switch (readFrame(fd_, reply_type, reply, &fs)) {
          case ReadStatus::Ok:
            break;
          case ReadStatus::Eof:
            broken = "server closed the connection before replying";
            break;
          case ReadStatus::Transport:
            broken = "transport error reading reply";
            break;
          case ReadStatus::BadFrame:
            // Not a transport blip: the peer speaks a different
            // protocol. Retrying cannot help, so this stays fatal.
            disconnect();
            fatal("client: malformed reply frame (",
                  fs == FrameStatus::BadVersion ? "wire version mismatch"
                                                : "bad header",
                  ")");
        }
    }
    if (broken) {
        error = broken;
        disconnect();
        return ServeError::Transport;
    }

    if (reply_type == MsgType::ErrorReply) {
        // An ErrorReply claiming no error is as undecodable as garbage.
        ErrorReply err;
        if (ErrorReply::decode(reply, err) && err.code != ServeError::None) {
            error = std::move(err.message);
            return err.code;
        }
    } else if (reply_type != kReplyType<Reply>) {
        fatal("client: unexpected reply type ", unsigned(reply_type),
              " to request type ", unsigned(type));
    } else if (Reply::decode(reply, out)) {
        return ServeError::None;
    }
    fatal("client: undecodable reply payload (message type ",
          unsigned(reply_type), ")");
}

template <class Reply>
Reply
ServeClient::callOrThrow(MsgType type, std::string_view payload)
{
    Reply reply;
    std::string error;
    const ServeError code = call(type, payload, reply, error);
    if (code != ServeError::None)
        fatal("client: ", serveErrorName(code), ": ", error);
    return reply;
}

PointReply
ServeClient::run(const RunRequest &req)
{
    RunReply reply;
    std::string error;
    const ServeError code =
        call(MsgType::RunRequest, req.encode(), reply, error);
    if (code != ServeError::None)
        return failedPoint(code, std::move(error));
    return std::move(reply.point);
}

SweepReply
ServeClient::sweep(const SweepRequest &req)
{
    SweepReply reply;
    std::string error;
    const ServeError code =
        call(MsgType::SweepRequest, req.encode(), reply, error);
    if (code != ServeError::None)
        reply.points.assign(1, failedPoint(code, std::move(error)));
    return reply;
}

CacheQueryReply
ServeClient::cacheQuery(const CacheQueryRequest &req)
{
    return callOrThrow<CacheQueryReply>(MsgType::CacheQueryRequest,
                                        req.encode());
}

StatsReply
ServeClient::stats()
{
    return callOrThrow<StatsReply>(MsgType::StatsRequest,
                                   StatsRequest{}.encode());
}

bool
ServeClient::ping(PingReply &out, std::string &error)
{
    return call(MsgType::PingRequest, PingRequest{}.encode(), out, error)
           == ServeError::None;
}

bool
ServeClient::drain()
{
    return callOrThrow<DrainReply>(MsgType::DrainRequest,
                                   DrainRequest{}.encode())
        .was_draining;
}

} // namespace thermctl::serve
