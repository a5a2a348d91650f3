/**
 * @file
 * TCP front end for serve::SweepService.
 *
 * The server speaks the newline-delimited JSON protocol of
 * net/protocol.hh on a listening socket. The thread layout keeps
 * I/O off the compute pool:
 *
 *  - one accept thread, blocking in poll() on the listener;
 *  - one reader thread per connection, scanning lines out of a
 *    bounded buffer and parsing requests;
 *  - one dispatcher thread popping admitted requests off a bounded
 *    queue and running them on the embedded SweepService (whose
 *    ThreadPool does the actual Monte-Carlo work).
 *
 * Admission control is explicit: a request that arrives while the
 * queue holds admissionCapacity entries is *shed* -- the client gets
 * an immediate {"ok":false,"error":"overloaded"} reply -- never
 * silently queued or dropped. Every admitted request is answered
 * exactly once; accepted + shed + bad == lines received.
 *
 * Deadlines propagate: a request's deadline_ms is measured from the
 * moment its line was read, so time spent waiting in the admission
 * queue counts against it. The dispatcher hands the *remaining*
 * budget to SweepService::run; a request whose budget ran out in the
 * queue fails fast as an empty Partial, exactly like an in-process
 * caller passing a zero deadline.
 *
 * stop() is graceful: stop accepting, reply "shutting_down" to lines
 * already in flight, drain the queue for up to drainSeconds, then
 * cancel the in-flight batch and expire the stragglers (they answer
 * as Partial). Every response outlives the socket: connection file
 * descriptors close only after the dispatcher wrote its last reply.
 *
 * Metrics (when cfg.metrics is set) land under "net.*":
 * connections.accepted/active, requests.accepted/shed/bad/completed,
 * request.latency_ms histogram, bytes.in/out -- alongside the
 * embedded service's "serve.*" counters.
 */

#ifndef VSYNC_NET_SERVER_HH
#define VSYNC_NET_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hh"
#include "serve/sweep_service.hh"

namespace vsync::obs
{
class MetricsRegistry;
} // namespace vsync::obs

namespace vsync::net
{

/** stop(): queue-drain budget before stragglers are expired. */
constexpr double drainSeconds = 5.0;

/** Server knobs. */
struct ServerConfig
{
    /** Address to bind (numeric IPv4). */
    std::string host = "127.0.0.1";
    /** Port to bind; 0 = ephemeral (read the result from port()). */
    std::uint16_t port = 0;
    /** Compute pool width; 0 = defaultThreadCount(). */
    unsigned computeThreads = 0;
    /** Admission queue bound; arrivals beyond it are shed. */
    std::size_t admissionCapacity = 64;
    /** Compiled-kernel cache capacity of the embedded service. */
    std::size_t cacheCapacity = 32;
    /**
     * Longest accepted request line. An oversized line is answered
     * with {"ok":false,"error":"too_large"} and skipped (the reader
     * resynchronises at its newline and the connection survives); the
     * buffer never grows past this bound, so a stream that simply
     * never sends '\n' cannot balloon server memory.
     */
    std::size_t maxLineBytes = defaultMaxLineBytes;
    /** Optional registry for "net.*" and the service's "serve.*". */
    obs::MetricsRegistry *metrics = nullptr;
};

/**
 * The scenario server. start()/stop() bracket the listening state;
 * the destructor stops implicitly. One instance serves any number of
 * concurrent connections; requests across all connections share the
 * one admission queue and compute pool.
 */
class ScenarioServer
{
  public:
    explicit ScenarioServer(ServerConfig cfg = {});
    ~ScenarioServer();

    ScenarioServer(const ScenarioServer &) = delete;
    ScenarioServer &operator=(const ScenarioServer &) = delete;

    /**
     * Bind, listen and spawn the I/O threads. Returns false (with a
     * warn) when the address cannot be bound; the instance may not be
     * reused after a failed start.
     */
    bool start();

    /** The bound port (valid after a successful start()). */
    std::uint16_t port() const { return boundPort; }

    /**
     * Graceful shutdown; idempotent, safe to call concurrently with
     * serving. Returns when every admitted request has been answered
     * and every thread joined.
     */
    void stop();

    /** The embedded service (test access: cache stats, cancel). */
    serve::SweepService &service() { return svc; }

  private:
    struct Connection;
    /** One admitted request waiting for the dispatcher. */
    struct Pending
    {
        std::shared_ptr<Connection> conn;
        WireRequest rq;
        /** steady_clock::now() when the request line was read. */
        std::chrono::steady_clock::time_point arrival;
    };
    /** A lazily built (layout, tree) scenario, address-stable. */
    struct Scenario;

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Connection> conn);
    void dispatchLoop();
    /** Serve one admitted request (dispatcher thread only). */
    void serveOne(Pending &p);
    const Scenario &scenarioFor(const WireRequest &rq);
    void writeLine(Connection &conn, const std::string &line);
    void wakeThreads();

    ServerConfig cfg;
    serve::SweepService svc;

    int listenFd = -1;
    /** Written once at stop; readers poll it and never drain it. */
    int wakePipe[2] = {-1, -1};
    std::uint16_t boundPort = 0;
    std::atomic<bool> started{false};
    std::atomic<bool> stopped{false};
    /** Set first in stop(): refuse new connections and requests. */
    std::atomic<bool> draining{false};
    /** Set when the drain budget ran out: serve stragglers expired. */
    std::atomic<bool> expireStragglers{false};

    std::thread acceptThread;
    std::thread dispatchThread;
    std::mutex connMutex;
    std::vector<std::shared_ptr<Connection>> connections;
    std::vector<std::thread> connThreads;

    std::mutex queueMutex;
    std::condition_variable queueCv; //!< dispatcher waits for work
    std::condition_variable drainCv; //!< stop() waits for empty+idle
    std::deque<Pending> queue;
    bool dispatcherBusy = false;
    bool dispatcherExit = false;

    /**
     * Scenario catalog, keyed by (scheme, rows, cols); dispatcher
     * thread only, so unlocked. unique_ptr keeps borrowed layout/tree
     * addresses stable across catalog growth.
     */
    std::map<std::tuple<int, int, int>, std::unique_ptr<Scenario>>
        catalog;
};

} // namespace vsync::net

#endif // VSYNC_NET_SERVER_HH
