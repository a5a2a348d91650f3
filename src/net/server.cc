#include "net/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "clocktree/builders.hh"
#include "common/logging.hh"
#include "layout/generators.hh"
#include "obs/metrics.hh"

namespace vsync::net
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Default latency buckets (ms): sub-ms serving to multi-second. */
std::vector<double>
latencyBoundsMs()
{
    return {0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000};
}

/** write() the whole buffer; false on a dead peer (EPIPE etc.). */
bool
sendAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

/** Per-connection state shared by its reader and the dispatcher. */
struct ScenarioServer::Connection
{
    int fd = -1;
    /** Serialises writes: reader (error replies) vs dispatcher. */
    std::mutex writeMutex;
    /** The peer vanished; suppress further writes. */
    std::atomic<bool> dead{false};

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/** One lazily built scenario: the layout and (for trees) the tree. */
struct ScenarioServer::Scenario
{
    layout::Layout layout;
    clocktree::ClockTree tree;
    bool hasTree = false;
};

ScenarioServer::ScenarioServer(ServerConfig config)
    : cfg(config),
      svc(serve::ServiceConfig{config.computeThreads,
                               config.cacheCapacity, config.metrics})
{
}

ScenarioServer::~ScenarioServer()
{
    stop();
}

bool
ScenarioServer::start()
{
    VSYNC_ASSERT(!started.load(), "ScenarioServer started twice");

    listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd < 0) {
        warn("net: socket() failed: %s", std::strerror(errno));
        return false;
    }
    const int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg.port);
    if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1) {
        warn("net: bad listen address '%s'", cfg.host.c_str());
        ::close(listenFd);
        listenFd = -1;
        return false;
    }
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd, 128) != 0) {
        warn("net: cannot listen on %s:%u: %s", cfg.host.c_str(),
             unsigned(cfg.port), std::strerror(errno));
        ::close(listenFd);
        listenFd = -1;
        return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr), &len);
    boundPort = ntohs(addr.sin_port);

    if (::pipe(wakePipe) != 0) {
        warn("net: pipe() failed: %s", std::strerror(errno));
        ::close(listenFd);
        listenFd = -1;
        return false;
    }

    started.store(true);
    acceptThread = std::thread([this] { acceptLoop(); });
    dispatchThread = std::thread([this] { dispatchLoop(); });
    inform("net: serving on %s:%u", cfg.host.c_str(),
           unsigned(boundPort));
    return true;
}

void
ScenarioServer::wakeThreads()
{
    // One byte, never drained: every poll()er sees POLLIN from now on.
    const char b = 1;
    [[maybe_unused]] ssize_t n = ::write(wakePipe[1], &b, 1);
}

void
ScenarioServer::stop()
{
    if (!started.load() || stopped.exchange(true))
        return;

    // 1. Refuse new work everywhere, then wake the blocked pollers.
    draining.store(true);
    wakeThreads();
    acceptThread.join();
    {
        std::lock_guard<std::mutex> lock(connMutex);
        for (std::thread &t : connThreads)
            t.join();
        connThreads.clear();
    }

    // 2. Drain: the queue is frozen now (no readers left). Give the
    //    dispatcher drainSeconds to answer what was admitted.
    {
        std::unique_lock<std::mutex> lock(queueMutex);
        const bool drained = drainCv.wait_for(
            lock,
            std::chrono::duration<double>(drainSeconds),
            [this] { return queue.empty() && !dispatcherBusy; });
        if (!drained) {
            // 3. Out of patience: the in-flight batch gets cancelled
            //    and the stragglers run with an expired deadline, so
            //    every admitted request still gets its (Partial)
            //    reply -- quickly.
            expireStragglers.store(true);
            lock.unlock();
            svc.cancel();
            lock.lock();
            drainCv.wait(lock, [this] {
                return queue.empty() && !dispatcherBusy;
            });
        }
        dispatcherExit = true;
    }
    queueCv.notify_all();
    dispatchThread.join();

    // 4. Every reply has been written; now the sockets may close.
    {
        std::lock_guard<std::mutex> lock(connMutex);
        connections.clear();
    }
    ::close(listenFd);
    listenFd = -1;
    ::close(wakePipe[0]);
    ::close(wakePipe[1]);
    wakePipe[0] = wakePipe[1] = -1;
    inform("net: server stopped");
}

void
ScenarioServer::acceptLoop()
{
    while (!draining.load()) {
        pollfd fds[2] = {{listenFd, POLLIN, 0},
                         {wakePipe[0], POLLIN, 0}};
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR)
                continue;
            warn("net: accept poll failed: %s", std::strerror(errno));
            break;
        }
        if (draining.load())
            break;
        if (!(fds[0].revents & POLLIN))
            continue;
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            warn("net: accept failed: %s", std::strerror(errno));
            break;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        if (cfg.metrics) {
            cfg.metrics->counter("net.connections.accepted").inc();
            cfg.metrics->gauge("net.connections.active").add(1.0);
        }
        std::lock_guard<std::mutex> lock(connMutex);
        connections.push_back(conn);
        connThreads.emplace_back(
            [this, conn] { connectionLoop(conn); });
    }
}

void
ScenarioServer::connectionLoop(std::shared_ptr<Connection> conn)
{
    LineReader reader(cfg.maxLineBytes);
    std::string line;
    char chunk[4096];

    const auto fail = [&](const char *why) {
        (void)why;
        conn->dead.store(true);
    };

    while (!draining.load()) {
        pollfd fds[2] = {{conn->fd, POLLIN, 0},
                         {wakePipe[0], POLLIN, 0}};
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR)
                continue;
            fail("poll");
            break;
        }
        if (draining.load())
            break;
        if (!(fds[0].revents & (POLLIN | POLLHUP | POLLERR)))
            continue;
        const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            // Peer closed (or error): done reading. Queued requests
            // keep their shared_ptr; late replies hit a dead socket
            // and are dropped by writeLine.
            if (n < 0)
                fail("recv");
            break;
        }
        if (cfg.metrics)
            cfg.metrics->counter("net.bytes.in")
                .inc(static_cast<std::uint64_t>(n));
        reader.feed(chunk, static_cast<std::size_t>(n));

        for (;;) {
            const LineReader::Next ev = reader.next(line);
            if (ev == LineReader::Next::NeedMore)
                break;
            const Clock::time_point arrival = Clock::now();
            if (ev == LineReader::Next::TooLarge) {
                // The line's bytes are already dropped; the reply has
                // no id to echo (the line was never parsed) and the
                // connection survives, resynchronised at the newline.
                if (cfg.metrics)
                    cfg.metrics->counter("net.requests.too_large")
                        .inc();
                writeLine(*conn,
                          encodeError(0, errTooLarge,
                                      "request line exceeds " +
                                          std::to_string(
                                              cfg.maxLineBytes) +
                                          " bytes"));
                continue;
            }

            WireRequest rq;
            std::string error;
            if (line.find_first_not_of(" \t\r") == std::string::npos) {
                // Blank line: ignore (nc users hitting return).
            } else if (!parseRequest(line, rq, error)) {
                if (cfg.metrics)
                    cfg.metrics->counter("net.requests.bad").inc();
                writeLine(*conn, encodeError(rq.id, errBadRequest,
                                             error));
            } else if (rq.kind == QueryKind::Info) {
                // Health ping: answered here on the reader thread, so
                // liveness probes see the truth even when the
                // dispatcher and pool are saturated.
                InfoReply info;
                info.threads = svc.threads();
                info.queueCapacity = cfg.admissionCapacity;
                info.draining = draining.load();
                {
                    std::lock_guard<std::mutex> lock(queueMutex);
                    info.queueDepth = queue.size();
                }
                if (cfg.metrics)
                    cfg.metrics->counter("net.requests.info").inc();
                writeLine(*conn, encodeInfo(rq.id, info));
            } else if (draining.load()) {
                writeLine(*conn, encodeError(rq.id, errShuttingDown,
                                             "server stopping"));
            } else {
                bool admitted = false;
                {
                    std::lock_guard<std::mutex> lock(queueMutex);
                    if (queue.size() < cfg.admissionCapacity) {
                        queue.push_back(Pending{conn, rq, arrival});
                        admitted = true;
                    }
                }
                if (admitted) {
                    queueCv.notify_one();
                    if (cfg.metrics)
                        cfg.metrics->counter("net.requests.accepted")
                            .inc();
                } else {
                    // Shed, loudly: the client learns immediately
                    // instead of waiting on an unbounded queue.
                    if (cfg.metrics)
                        cfg.metrics->counter("net.requests.shed")
                            .inc();
                    writeLine(*conn,
                              encodeError(rq.id, errOverloaded,
                                          "admission queue full"));
                }
            }
        }
    }
    if (cfg.metrics)
        cfg.metrics->gauge("net.connections.active").add(-1.0);
}

void
ScenarioServer::dispatchLoop()
{
    for (;;) {
        Pending p;
        {
            std::unique_lock<std::mutex> lock(queueMutex);
            queueCv.wait(lock, [this] {
                return dispatcherExit || !queue.empty();
            });
            if (queue.empty()) {
                VSYNC_ASSERT(dispatcherExit, "spurious dispatch wake");
                return;
            }
            p = std::move(queue.front());
            queue.pop_front();
            dispatcherBusy = true;
        }
        serveOne(p);
        {
            std::lock_guard<std::mutex> lock(queueMutex);
            dispatcherBusy = false;
        }
        drainCv.notify_all();
    }
}

const ScenarioServer::Scenario &
ScenarioServer::scenarioFor(const WireRequest &rq)
{
    const std::tuple<int, int, int> key{static_cast<int>(rq.scheme),
                                        rq.rows, rq.cols};
    auto it = catalog.find(key);
    if (it == catalog.end()) {
        auto sc = std::make_unique<Scenario>();
        sc->layout = layout::meshLayout(rq.rows, rq.cols);
        if (rq.scheme == WireScheme::HTree) {
            sc->tree = clocktree::buildHTreeGrid(sc->layout, rq.rows,
                                                 rq.cols);
            sc->hasTree = true;
        } else if (rq.scheme == WireScheme::Spine) {
            sc->tree = clocktree::buildSpine(sc->layout);
            sc->hasTree = true;
        }
        it = catalog.emplace(key, std::move(sc)).first;
    }
    return *it->second;
}

void
ScenarioServer::serveOne(Pending &p)
{
    const WireRequest &rq = p.rq;
    const Scenario &sc = scenarioFor(rq);

    mc::McConfig mcc;
    mcc.seed = rq.seed;
    mcc.trials = rq.trials;
    mcc.grain = rq.grain;

    std::vector<serve::SweepRequest> batch;
    if (rq.kind == QueryKind::Skew) {
        serve::SkewRequest s;
        s.layout = &sc.layout;
        s.tree = &sc.tree;
        s.delay = rq.delay;
        s.cfg = mcc;
        s.trialOffset = rq.trialOffset;
        batch.emplace_back(s);
    } else {
        serve::ResilienceRequest r;
        r.layout = &sc.layout;
        r.rows = rq.rows;
        r.cols = rq.cols;
        r.kind = rq.scheme == WireScheme::Trix
                     ? mc::DistributionKind::TrixGrid
                     : (rq.scheme == WireScheme::Spine
                            ? mc::DistributionKind::Spine
                            : mc::DistributionKind::HTree);
        r.faultRate = rq.faultRate;
        r.rc.delay = rq.delay;
        r.cfg = mcc;
        r.trialOffset = rq.trialOffset;
        batch.emplace_back(r);
    }

    // The deadline is arrival-relative: queue wait already spent part
    // of it. A non-positive remainder (or a straggler past the drain
    // budget) fails fast inside the service -- empty Partial.
    serve::BatchOptions opts;
    if (rq.deadlineMs < infinity) {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - p.arrival)
                .count();
        opts.deadlineSeconds = rq.deadlineMs / 1e3 - elapsed;
    }
    if (expireStragglers.load())
        opts.deadlineSeconds = 0.0;

    const serve::BatchOutcome out = svc.run(batch, opts);
    VSYNC_ASSERT(out.outcomes.size() == 1,
                 "single-request batch produced %zu outcomes",
                 out.outcomes.size());

    const double serverMs =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  p.arrival)
            .count();
    writeLine(*p.conn, encodeOutcome(rq, out.outcomes[0], serverMs));
    if (cfg.metrics) {
        cfg.metrics->counter("net.requests.completed").inc();
        cfg.metrics
            ->histogram("net.request.latency_ms", latencyBoundsMs())
            .observe(serverMs);
    }
}

void
ScenarioServer::writeLine(Connection &conn, const std::string &line)
{
    if (conn.dead.load())
        return;
    std::lock_guard<std::mutex> lock(conn.writeMutex);
    std::string framed = line;
    framed.push_back('\n');
    if (!sendAll(conn.fd, framed.data(), framed.size())) {
        conn.dead.store(true);
        return;
    }
    if (cfg.metrics)
        cfg.metrics->counter("net.bytes.out")
            .inc(static_cast<std::uint64_t>(framed.size()));
}

} // namespace vsync::net
