/**
 * @file
 * Synchronous client for the thermctl-serve wire protocol.
 *
 * A ServeClient owns one connected socket and issues one request at a
 * time (the protocol is strictly request/reply per connection; open
 * more clients for concurrency). Every request goes through one typed
 * round-trip: write the frame, read the reply frame, map an ErrorReply
 * to its ServeError code, check the reply type, decode. Server-side
 * failures come back as typed ServeError codes; transport failures on
 * the data plane (run/sweep/ping) come back the same way, as
 * ServeError::Transport, with the socket closed — callers distinguish
 * "the server refused this request" (Overloaded, Draining, ...) from
 * "the connection broke" and can reconnect (serve/retry.hh retries
 * them). Control-plane calls (cacheQuery/stats/drain) and protocol
 * violations throw FatalError.
 *
 * dialEndpoint() is the one endpoint parser and dial; everything that
 * opens a connection to a server (this client, the load generator)
 * goes through it.
 */

#ifndef THERMCTL_SERVE_CLIENT_HH
#define THERMCTL_SERVE_CLIENT_HH

#include <string>
#include <string_view>
#include <utility>

#include "serve/protocol.hh"

namespace thermctl::serve
{

/**
 * Parse `endpoint` — "unix:PATH", "tcp:HOST:PORT", or a bare path
 * (treated as a Unix socket) — and connect a blocking stream socket to
 * it. `timeout_ms` bounds the connect phase (0 = no bound); a Unix
 * listener whose backlog is full fails immediately under a bound
 * instead of blocking. Never throws.
 * @return the connected fd, or -1 with the cause in `error`.
 */
[[nodiscard]] int dialEndpoint(const std::string &endpoint,
                               unsigned timeout_ms, std::string &error);

class ServeClient
{
  public:
    /** tryConnect with no connect bound; fatal on failure. */
    static ServeClient connect(const std::string &endpoint);

    /**
     * Non-fatal connect through dialEndpoint: on failure returns a
     * disconnected client and fills `error`. Reconnection paths use
     * this so a flapping server is a retryable condition, not process
     * death, and a wedged worker costs at most `timeout_ms`
     * (0 = no bound).
     */
    static ServeClient tryConnect(const std::string &endpoint,
                                  unsigned timeout_ms, std::string &error);

    /** A disconnected client; connect() or tryConnect() to get one. */
    ServeClient() = default;

    ~ServeClient();
    ServeClient(ServeClient &&other) noexcept
        : fd_(std::exchange(other.fd_, -1))
    {
    }
    ServeClient &operator=(ServeClient &&other) noexcept;
    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** @return true while the socket is open and usable. */
    [[nodiscard]] bool connected() const { return fd_ >= 0; }

    /**
     * Bound every subsequent reply read to `ms` milliseconds
     * (SO_RCVTIMEO); 0 restores blocking reads. An expired read
     * surfaces as a Transport failure with the socket closed — the
     * coordinator uses this to turn a silent worker stall into a typed,
     * lease-sized failure instead of an indefinite hang.
     */
    void setRecvTimeout(unsigned ms);

    /**
     * Execute one point on the server. Server-side refusals (overload,
     * drain, unknown names, deadline) return as PointReply.error; a
     * broken connection returns ServeError::Transport and disconnects.
     */
    [[nodiscard]] PointReply run(const RunRequest &req);

    /**
     * Execute a benchmarks x policies grid; replies in grid order.
     * A refused request or a broken connection yields a single typed
     * point.
     */
    [[nodiscard]] SweepReply sweep(const SweepRequest &req);

    /** Probe the server's result cache without simulating. */
    [[nodiscard]] CacheQueryReply cacheQuery(const CacheQueryRequest &req);

    [[nodiscard]] StatsReply stats();

    /**
     * Lightweight health probe. Non-fatal like the data plane: a broken
     * connection returns false with the cause in `error` and the socket
     * closed. Protocol violations still throw.
     */
    [[nodiscard]] bool ping(PingReply &out, std::string &error);

    /**
     * Request a graceful drain: the server finishes in-flight work,
     * refuses new requests, and exits.
     * @return true when the server was already draining.
     */
    bool drain();

  private:
    explicit ServeClient(int fd) : fd_(fd) {}

    /**
     * One typed request/reply exchange. On success `out` holds the
     * decoded reply and the result is ServeError::None. A server
     * ErrorReply returns its code with its message in `error`; a broken
     * connection closes the socket and returns Transport with the cause
     * in `error`. Protocol violations — a malformed frame, a reply of
     * the wrong type, an undecodable payload — throw FatalError.
     */
    template <class Reply>
    [[nodiscard]] ServeError call(MsgType type, std::string_view payload,
                                  Reply &out, std::string &error);

    /** call() for the control plane: any failure throws FatalError. */
    template <class Reply>
    Reply callOrThrow(MsgType type, std::string_view payload);

    /** Close the socket (broken connections are not reusable). */
    void disconnect();

    int fd_ = -1;
};

} // namespace thermctl::serve

#endif // THERMCTL_SERVE_CLIENT_HH
