#include "dist/worker_pool.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"

namespace vsync::dist
{

namespace
{

using Clock = std::chrono::steady_clock;

int
connectTo(const std::string &host, std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

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

/** Latency bucket bounds for dist.worker.<i>.latency_ms. */
std::vector<double>
latencyBoundsMs()
{
    return {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000};
}

} // namespace

struct WorkerPool::Worker
{
    WorkerEndpoint ep;
    int fd = -1;
    /** Recreated on every connect so stale bytes never leak over. */
    net::LineReader reader{net::defaultMaxLineBytes};
    Backoff backoff;
    unsigned consecutiveFailures = 0;
    std::atomic<WorkerState> state{WorkerState::Disconnected};
    obs::Histogram *latency = nullptr;
};

WorkerPool::WorkerPool(std::vector<WorkerEndpoint> endpoints,
                       WorkerPoolConfig config)
    : cfg(config)
{
    cfg.backoff.validate();
    VSYNC_ASSERT(!endpoints.empty(), "WorkerPool needs >= 1 endpoint");
    if (::pipe(wakePipe) != 0)
        fatal("WorkerPool: pipe() failed: %s", std::strerror(errno));
    ::fcntl(wakePipe[0], F_SETFL, O_NONBLOCK);
    ::fcntl(wakePipe[1], F_SETFL, O_NONBLOCK);

    unsigned w = 0;
    for (WorkerEndpoint &ep : endpoints) {
        Worker &wk = workers.emplace_back();
        wk.ep = std::move(ep);
        // Each worker jitters on its own counter-based substream, so
        // backoff schedules are decorrelated yet fully reproducible.
        wk.backoff = Backoff(cfg.backoff, Rng::forTrial(cfg.seed, w));
        wk.reader = net::LineReader(maxResponseLineBytes);
        if (cfg.metrics) {
            wk.latency = &cfg.metrics->histogram(
                "dist.worker." + std::to_string(w) + ".latency_ms",
                latencyBoundsMs());
        }
        ++w;
    }
    alive.store(workers.size(), std::memory_order_relaxed);
    if (cfg.metrics)
        cfg.metrics->gauge("dist.fleet.size")
            .set(static_cast<double>(workers.size()));
}

WorkerPool::~WorkerPool()
{
    requestStop();
    for (Worker &wk : workers)
        closeWorker(wk);
    if (wakePipe[0] >= 0)
        ::close(wakePipe[0]);
    if (wakePipe[1] >= 0)
        ::close(wakePipe[1]);
}

std::size_t
WorkerPool::size() const
{
    return workers.size();
}

const WorkerEndpoint &
WorkerPool::endpoint(unsigned w) const
{
    VSYNC_ASSERT(w < workers.size(), "worker index out of range");
    return workers[w].ep;
}

WorkerState
WorkerPool::state(unsigned w) const
{
    VSYNC_ASSERT(w < workers.size(), "worker index out of range");
    return workers[w].state.load(std::memory_order_relaxed);
}

void
WorkerPool::closeWorker(Worker &wk)
{
    if (wk.fd >= 0) {
        ::close(wk.fd);
        wk.fd = -1;
    }
}

void
WorkerPool::markDead(Worker &wk)
{
    if (wk.state.exchange(WorkerState::Dead,
                          std::memory_order_relaxed) !=
        WorkerState::Dead) {
        alive.fetch_sub(1, std::memory_order_relaxed);
        if (cfg.metrics)
            cfg.metrics->gauge("dist.fleet.alive")
                .set(static_cast<double>(aliveCount()));
    }
    closeWorker(wk);
}

bool
WorkerPool::interruptibleSleep(double seconds)
{
    std::unique_lock<std::mutex> lock(sleepMutex);
    return !sleepCv.wait_for(
        lock, std::chrono::duration<double>(seconds),
        [&] { return stopping.load(std::memory_order_relaxed); });
}

void
WorkerPool::requestStop()
{
    stopping.store(true, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(sleepMutex);
    }
    sleepCv.notify_all();
    // One byte, never drained: every poll on the read end wakes, now
    // and for all future polls until resetStop() drains it.
    const char b = 'x';
    [[maybe_unused]] ssize_t n = ::write(wakePipe[1], &b, 1);
}

void
WorkerPool::resetStop()
{
    stopping.store(false, std::memory_order_relaxed);
    char sink[16];
    while (::read(wakePipe[0], sink, sizeof(sink)) > 0) {
    }
}

bool
WorkerPool::connectOnce(unsigned w)
{
    Worker &wk = workers[w];
    closeWorker(wk);
    wk.reader = net::LineReader(maxResponseLineBytes);
    wk.fd = connectTo(wk.ep.host, wk.ep.port);
    if (wk.fd < 0)
        return false;

    // Info handshake: the connection only counts once the worker
    // proves it answers, and the reply pins the protocol version.
    std::string line = net::encodeRequest(
        [] {
            net::WireRequest rq;
            rq.kind = net::QueryKind::Info;
            return rq;
        }());
    line.push_back('\n');
    if (!sendAll(wk.fd, line.data(), line.size())) {
        closeWorker(wk);
        return false;
    }
    net::WireResponse rsp;
    if (recv(w, cfg.pingTimeoutSeconds, rsp) != RecvStatus::Ok ||
        !rsp.ok) {
        closeWorker(wk);
        return false;
    }
    if (rsp.proto != net::protocolVersion) {
        warn("dist: worker %s:%u speaks protocol %llu, want %llu",
             wk.ep.host.c_str(), unsigned(wk.ep.port),
             static_cast<unsigned long long>(rsp.proto),
             static_cast<unsigned long long>(net::protocolVersion));
        closeWorker(wk);
        return false;
    }
    return true;
}

bool
WorkerPool::ensureConnected(unsigned w)
{
    VSYNC_ASSERT(w < workers.size(), "worker index out of range");
    Worker &wk = workers[w];
    for (;;) {
        if (stopping.load(std::memory_order_relaxed) ||
            wk.state.load(std::memory_order_relaxed) ==
                WorkerState::Dead)
            return false;
        if (wk.fd >= 0)
            return true;
        if (connectOnce(w)) {
            wk.state.store(WorkerState::Alive,
                           std::memory_order_relaxed);
            wk.consecutiveFailures = 0;
            wk.backoff.reset();
            return true;
        }
        if (++wk.consecutiveFailures >= cfg.failureBudget) {
            inform("dist: worker %s:%u dead after %u failed connects",
                   wk.ep.host.c_str(), unsigned(wk.ep.port),
                   wk.consecutiveFailures);
            markDead(wk);
            return false;
        }
        if (!interruptibleSleep(wk.backoff.nextSeconds()))
            return false;
    }
}

bool
WorkerPool::noteSessionFailure(unsigned w)
{
    VSYNC_ASSERT(w < workers.size(), "worker index out of range");
    Worker &wk = workers[w];
    closeWorker(wk);
    wk.state.store(WorkerState::Disconnected,
                   std::memory_order_relaxed);
    if (++wk.consecutiveFailures >= cfg.failureBudget) {
        inform("dist: worker %s:%u dead after %u session failures",
               wk.ep.host.c_str(), unsigned(wk.ep.port),
               wk.consecutiveFailures);
        markDead(wk);
        return false;
    }
    return true;
}

bool
WorkerPool::backoffSleep(unsigned w)
{
    VSYNC_ASSERT(w < workers.size(), "worker index out of range");
    return interruptibleSleep(workers[w].backoff.nextSeconds());
}

void
WorkerPool::noteSuccess(unsigned w)
{
    VSYNC_ASSERT(w < workers.size(), "worker index out of range");
    Worker &wk = workers[w];
    wk.consecutiveFailures = 0;
    wk.backoff.reset();
}

bool
WorkerPool::send(unsigned w, const std::string &line)
{
    VSYNC_ASSERT(w < workers.size(), "worker index out of range");
    Worker &wk = workers[w];
    if (wk.fd < 0)
        return false;
    std::string framed = line;
    framed.push_back('\n');
    return sendAll(wk.fd, framed.data(), framed.size());
}

WorkerPool::RecvStatus
WorkerPool::recv(unsigned w, double timeout_seconds,
                 net::WireResponse &out)
{
    VSYNC_ASSERT(w < workers.size(), "worker index out of range");
    Worker &wk = workers[w];
    if (wk.fd < 0)
        return RecvStatus::Closed;

    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               std::max(0.0, timeout_seconds)));
    char chunk[1 << 16];
    std::string line;
    for (;;) {
        // Drain already-buffered lines before touching the socket.
        for (;;) {
            const net::LineReader::Next ev = wk.reader.next(line);
            if (ev == net::LineReader::Next::NeedMore)
                break;
            if (ev == net::LineReader::Next::TooLarge) {
                warn("dist: worker %s:%u sent an oversized line",
                     wk.ep.host.c_str(), unsigned(wk.ep.port));
                return RecvStatus::Closed;
            }
            std::string error;
            if (!net::parseResponse(line, out, error)) {
                warn("dist: worker %s:%u sent a bad response: %s",
                     wk.ep.host.c_str(), unsigned(wk.ep.port),
                     error.c_str());
                return RecvStatus::Closed;
            }
            return RecvStatus::Ok;
        }

        if (stopping.load(std::memory_order_relaxed))
            return RecvStatus::Closed;
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count();
        if (remaining <= 0)
            return RecvStatus::Timeout;
        pollfd pfds[2] = {{wk.fd, POLLIN, 0},
                          {wakePipe[0], POLLIN, 0}};
        const int pr = ::poll(
            pfds, 2,
            static_cast<int>(std::min<long long>(remaining, 60'000)));
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return RecvStatus::Closed;
        }
        if (pfds[1].revents & POLLIN)
            return RecvStatus::Closed; // stop requested
        if (pr == 0 || !(pfds[0].revents & (POLLIN | POLLHUP)))
            continue;
        const ssize_t n = ::recv(wk.fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return RecvStatus::Closed;
        wk.reader.feed(chunk, static_cast<std::size_t>(n));
    }
}

void
WorkerPool::observeLatency(unsigned w, double ms)
{
    VSYNC_ASSERT(w < workers.size(), "worker index out of range");
    if (workers[w].latency)
        workers[w].latency->observe(ms);
}

} // namespace vsync::dist
