#include "client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <limits>
#include <thread>

namespace perfbench
{

namespace net = vsync::net;

LineConnection::LineConnection(std::uint16_t port)
{
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        fd = -1;
        return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

LineConnection::~LineConnection()
{
    if (fd >= 0)
        ::close(fd);
}

bool
LineConnection::sendLine(const std::string &line)
{
    std::string framed = line;
    framed.push_back('\n');
    const char *data = framed.data();
    std::size_t len = framed.size();
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

bool
LineConnection::popLine(std::string &line)
{
    const std::size_t nl = buffer.find('\n');
    if (nl == std::string::npos)
        return false;
    line.assign(buffer, 0, nl);
    buffer.erase(0, nl + 1);
    return true;
}

bool
LineConnection::readLine(std::string &line, double timeoutSeconds)
{
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeoutSeconds));
    char chunk[65536];
    while (!popLine(line)) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - Clock::now())
                              .count();
        if (left <= 0)
            return false;
        pollfd pfd{fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, static_cast<int>(left));
        if (pr < 0 && errno == EINTR)
            continue;
        if (pr <= 0)
            return false;
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        feed(chunk, static_cast<std::size_t>(n));
    }
    return true;
}

std::vector<double>
OpenLoopResult::latencyMs() const
{
    std::vector<double> out(due.size(),
                            std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < due.size(); ++i)
        if (got[i] && responses[i].ok)
            out[i] = msBetween(due[i], received[i]);
    return out;
}

std::vector<double>
OpenLoopResult::lateMs() const
{
    std::vector<double> out(due.size(), 0.0);
    for (std::size_t i = 0; i < due.size(); ++i)
        out[i] = msBetween(due[i], sent[i]);
    return out;
}

OpenLoopResult
runOpenLoop(std::uint16_t port, unsigned connections, double rps,
            const std::vector<std::string> &lines, double patienceSeconds)
{
    const std::size_t n = lines.size();
    OpenLoopResult res;
    res.due.resize(n);
    res.sent.resize(n);
    res.received.resize(n);
    res.got.assign(n, 0);
    res.responses.resize(n);

    std::vector<std::unique_ptr<LineConnection>> conns;
    for (unsigned c = 0; c < std::max(1u, connections); ++c) {
        conns.push_back(std::make_unique<LineConnection>(port));
        if (!conns.back()->ok()) {
            res.transportOk = false;
            res.lost = n;
            return res;
        }
    }

    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i)
        res.due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  static_cast<double>(i) / rps));
    const Clock::time_point deadline =
        (n ? res.due[n - 1] : t0) +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(patienceSeconds));

    // The sender never waits for replies: request i goes out at its due
    // time whatever happened to earlier ones.
    bool sendFailed = false;
    std::thread sender([&] {
        for (std::size_t i = 0; i < n; ++i) {
            std::this_thread::sleep_until(res.due[i]);
            res.sent[i] = Clock::now();
            if (!conns[i % conns.size()]->sendLine(lines[i])) {
                sendFailed = true;
                return;
            }
        }
    });

    bool parseFailed = false;
    std::thread receiver([&] {
        std::vector<pollfd> fds;
        for (const auto &c : conns)
            fds.push_back(pollfd{c->socket(), POLLIN, 0});
        std::size_t answered = 0;
        char chunk[65536];
        std::string line;
        while (answered < n) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
            if (left <= 0)
                return;
            const int pr = ::poll(fds.data(), fds.size(),
                                  static_cast<int>(std::min<long long>(
                                      left, 100)));
            if (pr < 0 && errno != EINTR)
                return;
            if (pr <= 0)
                continue;
            const Clock::time_point now = Clock::now();
            for (std::size_t c = 0; c < fds.size(); ++c) {
                if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                    continue;
                const ssize_t got =
                    ::recv(fds[c].fd, chunk, sizeof(chunk), 0);
                if (got <= 0) {
                    fds[c].fd = -1; // closed: poll ignores it from now on
                    continue;
                }
                conns[c]->feed(chunk, static_cast<std::size_t>(got));
                while (conns[c]->popLine(line)) {
                    net::WireResponse rsp;
                    std::string error;
                    if (!net::parseResponse(line, rsp, error) ||
                        rsp.id >= n || res.got[rsp.id]) {
                        parseFailed = true;
                        continue;
                    }
                    const std::size_t id = rsp.id;
                    res.received[id] = now;
                    res.responses[id] = std::move(rsp);
                    res.got[id] = 1;
                    ++answered;
                }
            }
        }
    });
    sender.join();
    receiver.join();

    res.transportOk = !sendFailed && !parseFailed;
    for (std::size_t i = 0; i < n; ++i) {
        if (!res.got[i])
            ++res.lost;
        else if (res.responses[i].ok)
            ++res.completed;
        else if (res.responses[i].error == net::errOverloaded)
            ++res.shed;
        else
            ++res.errors;
    }
    return res;
}

double
closedLoopRate(std::uint16_t port, unsigned depth,
               const std::vector<std::string> &lines,
               std::vector<net::WireResponse> &responses)
{
    responses.assign(lines.size(), net::WireResponse{});
    LineConnection conn(port);
    if (!conn.ok() || lines.empty())
        return 0.0;
    const Clock::time_point t0 = Clock::now();
    std::size_t next = 0;
    for (; next < std::min<std::size_t>(depth, lines.size()); ++next)
        if (!conn.sendLine(lines[next]))
            return 0.0;
    std::string line;
    for (std::size_t done = 0; done < lines.size(); ++done) {
        net::WireResponse rsp;
        std::string error;
        if (!conn.readLine(line, 30.0) ||
            !net::parseResponse(line, rsp, error) ||
            rsp.id >= lines.size())
            return 0.0;
        responses[rsp.id] = std::move(rsp);
        if (next < lines.size() && !conn.sendLine(lines[next++]))
            return 0.0;
    }
    return static_cast<double>(lines.size()) / secondsSince(t0);
}

} // namespace perfbench
