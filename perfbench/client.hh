/**
 * @file
 * The benchmark's loopback client: a blocking line connection, a
 * closed-loop capacity probe and the open-loop generator.
 *
 * net::runLoadGen is not used: it times each request from its actual
 * send, so a stalled sender hides queueing (coordinated omission); it
 * drops refused requests from the latency set; and it spends two
 * threads per connection. The generator here times every request from
 * the moment it was due, keeps refused and lost requests as +inf
 * latencies, reports how late the sender ran, and uses two threads in
 * total: one sender pacing every connection, one poll()ing receiver.
 */

#ifndef PERFBENCH_CLIENT_HH
#define PERFBENCH_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"
#include "net/protocol.hh"

namespace perfbench
{

/** One TCP connection to a loopback server; closed on destruction. */
class LineConnection
{
  public:
    explicit LineConnection(std::uint16_t port);
    ~LineConnection();
    LineConnection(const LineConnection &) = delete;
    LineConnection &operator=(const LineConnection &) = delete;

    bool ok() const { return fd >= 0; }
    int socket() const { return fd; }

    /** Send @p line plus '\n'; false when the peer is gone. */
    bool sendLine(const std::string &line);

    /** Next received line without its '\n'; false on timeout or close. */
    bool readLine(std::string &line, double timeoutSeconds);

    /** Feed already-received bytes (the open-loop receiver reads the
     *  socket itself) and pop complete lines. */
    void feed(const char *data, std::size_t len) { buffer.append(data, len); }
    bool popLine(std::string &line);

  private:
    int fd = -1;
    std::string buffer;
};

/** Outcome of one open-loop step. */
struct OpenLoopResult
{
    std::vector<Clock::time_point> due;
    std::vector<Clock::time_point> sent;
    std::vector<Clock::time_point> received;
    /** got[i] != 0 iff request i got any reply. */
    std::vector<std::uint8_t> got;
    std::vector<vsync::net::WireResponse> responses;
    std::size_t completed = 0;
    std::size_t shed = 0;
    std::size_t errors = 0;
    std::size_t lost = 0;
    bool transportOk = true;

    /** Due-to-reply milliseconds; +inf for requests without an ok reply. */
    std::vector<double> latencyMs() const;
    /** How late each request was sent, milliseconds. */
    std::vector<double> lateMs() const;
};

/**
 * Offer lines[i] (whose id must be i) at t0 + i / rps over
 * @p connections connections, round robin, and wait for every reply up
 * to @p patienceSeconds after the last due time.
 */
OpenLoopResult runOpenLoop(std::uint16_t port, unsigned connections,
                           double rps, const std::vector<std::string> &lines,
                           double patienceSeconds);

/**
 * Closed-loop capacity: keep @p depth requests outstanding on one
 * connection until every line is answered. Returns replies per second
 * (0 on a transport failure); responses[i] answers lines[i].
 */
double closedLoopRate(std::uint16_t port, unsigned depth,
                      const std::vector<std::string> &lines,
                      std::vector<vsync::net::WireResponse> &responses);

} // namespace perfbench

#endif // PERFBENCH_CLIENT_HH
