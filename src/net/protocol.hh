/**
 * @file
 * Wire protocol of the TCP scenario server.
 *
 * Requests and responses are newline-delimited JSON objects, one per
 * line, so the protocol can be driven by hand with `nc` and parsed
 * with one split. A request names a scenario by its parameters (the
 * server builds the layout and clock tree itself and fetches the
 * compiled kernel through serve::ScenarioCache); a response carries
 * the sweep statistics plus the full per-trial sample vector, doubles
 * rendered by JsonWriter::formatDouble (shortest round-trip), so a
 * client can check the served numbers bit-for-bit against a direct
 * serve::SweepService run -- the property test_net asserts.
 *
 * The request parser is a small allocation-light recursive-descent
 * scanner over the line (no DOM, no maps); integers are parsed as
 * uint64 directly so 64-bit seeds survive, unlike a double-typed JSON
 * parser. Unknown keys are rejected: at this protocol size they are
 * far more likely typos than extensions.
 *
 * Request lines (defaults in WireRequest):
 *
 *   {"id":1,"kind":"skew","scheme":"htree","rows":8,"cols":8,
 *    "seed":42,"trials":64,"grain":8,"m":0.05,"eps":0.005,
 *    "deadline_ms":100}
 *   {"id":2,"kind":"resilience","scheme":"trix","rows":8,"cols":8,
 *    "fault_rate":0.02,"trials":32}
 *   {"id":3,"kind":"info"}
 *   {"id":4,"kind":"skew","trials":16,"trial_offset":48,...}
 *
 * Success responses echo the id and carry status "complete" or
 * "partial" (with a per-trial done mask); error responses are
 * {"id":..,"ok":false,"error":"overloaded"|"bad_request"|
 * "shutting_down"|"too_large","detail":"..."}. "info" is a
 * lightweight health ping answered off the reader thread;
 * "trial_offset" shifts the request's Rng::forTrial substream
 * indices, the seam the distributed coordinator (src/dist/) shards
 * sweeps through.
 */

#ifndef VSYNC_NET_PROTOCOL_HH
#define VSYNC_NET_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"
#include "core/wire_delay.hh"
#include "serve/sweep_service.hh"

namespace vsync::net
{

/** Which sweep family a request asks for. */
enum class QueryKind
{
    /** Max communicating-pair skew over a healthy clock tree. */
    Skew,
    /** Graceful degradation of a distribution under faults. */
    Resilience,
    /**
     * Health ping: {"id":7,"kind":"info"}. Answered immediately by
     * the connection's reader thread -- it never enters the admission
     * queue or touches the compute pool -- so a health checker (the
     * distributed WorkerPool) gets an honest liveness signal even
     * from a saturated worker. The reply reports the protocol
     * version, pool width, queue depth/capacity and drain state.
     */
    Info,
};

/**
 * Wire protocol version, reported in info replies. 2 = the
 * distributed-execution revision: info/ping, trial_offset sharding
 * and per-trial fault_samples in resilience responses.
 */
inline constexpr std::uint64_t protocolVersion = 2;

/**
 * Clock distribution named on the wire. HTree and Spine serve both
 * families; Trix (the redundant median-voting grid) has no tree and
 * serves resilience queries only.
 */
enum class WireScheme
{
    HTree,
    Spine,
    Trix,
};

/** Wire name of @p k ("skew" / "resilience"). */
const char *queryKindName(QueryKind k);

/** Wire name of @p s ("htree" / "spine" / "trix"). */
const char *wireSchemeName(WireScheme s);

/** One decoded request line. */
struct WireRequest
{
    /** Client-chosen correlation id, echoed in the response. */
    std::uint64_t id = 0;
    QueryKind kind = QueryKind::Skew;
    WireScheme scheme = WireScheme::HTree;
    /** Mesh dimensions of the scenario (cells row-major). */
    int rows = 4;
    int cols = 4;
    /** Resilience only: per-site fault rate in [0, 1]. */
    double faultRate = 0.0;
    std::uint64_t seed = 0x5eed5eed5eed5eedULL;
    std::size_t trials = 256;
    std::size_t grain = 16;
    /**
     * Global index of the first trial ("trial_offset", default 0):
     * local trial i draws from Rng::forTrial(seed, trialOffset + i).
     * The distributed coordinator shards a parent request by sending
     * each worker the parent parameters with trialOffset = the
     * shard's first global trial, so any assignment of shards to
     * workers reproduces the parent's samples bit for bit.
     */
    std::size_t trialOffset = 0;
    /** Per-unit wire delay (the Section III m and eps). */
    core::WireDelay delay{0.05, 0.005};
    /**
     * Wall-clock budget measured from the moment the server read the
     * request; infinity = none. Queue time counts against it, so a
     * request that waited too long fails fast as an empty Partial.
     */
    double deadlineMs = infinity;
};

/** Bounds enforced by parseRequest (memory-bomb protection). */
inline constexpr int maxWireSide = 512;
inline constexpr std::size_t maxWireCells = 1u << 16;
inline constexpr std::size_t maxWireTrials = 1u << 22;

/**
 * Parse one request line (newline already stripped). On failure
 * returns false with @p error describing the first problem; @p out is
 * then unspecified. @p out.id survives when the "id" key was parsed
 * before the error, so the reply can still be correlated.
 */
bool parseRequest(std::string_view line, WireRequest &out,
                  std::string &error);

/** Render @p rq as one request line (no trailing newline). */
std::string encodeRequest(const WireRequest &rq);

/**
 * Render the success response line for @p o (no trailing newline).
 * Statistics are emitted only when at least one trial ran; the
 * per-trial done mask only when the outcome is Partial.
 *
 * @param server_ms wall-clock from request arrival to response.
 */
std::string encodeOutcome(const WireRequest &rq,
                          const serve::RequestOutcome &o,
                          double server_ms);

/** Render an error response line (no trailing newline). */
std::string encodeError(std::uint64_t id, std::string_view code,
                        std::string_view detail);

/** One decoded response line (client side). */
struct WireResponse
{
    std::uint64_t id = 0;
    bool ok = false;
    /** Error code when !ok (errOverloaded / errBadRequest / ...). */
    std::string error;
    /** Human-readable error detail (may be empty). */
    std::string detail;
    /** ok: every requested trial ran. */
    bool complete = false;
    std::uint64_t trialsDone = 0;
    std::uint64_t trialsRequested = 0;
    /** Statistics over the completed trials (0 when none ran). */
    double mean = 0.0;
    double stddev = 0.0;
    double minValue = 0.0;
    double maxValue = 0.0;
    /** Resilience only: mean faults injected per completed trial. */
    double meanFaults = 0.0;
    /** Per-trial primary observable (skew ns). */
    std::vector<double> samples;
    /** Resilience only: per-trial clocked-cell fraction. */
    std::vector<double> clockedSamples;
    /** Resilience only: per-trial injected fault counts. */
    std::vector<double> faultSamples;
    /** Partial only: trialDone[i] != 0 iff trial i ran. */
    std::vector<std::uint8_t> trialDone;
    /** Server-side wall clock, arrival to response, milliseconds. */
    double serverMs = 0.0;
    /** Info replies: protocol version / pool width / queue state. */
    std::uint64_t proto = 0;
    std::uint64_t threads = 0;
    std::uint64_t queueDepth = 0;
    std::uint64_t queueCapacity = 0;
    bool draining = false;
};

/** Parse one response line; false + @p error on malformed input. */
bool parseResponse(std::string_view line, WireResponse &out,
                   std::string &error);

/** What an info/ping reply reports about the server. */
struct InfoReply
{
    std::uint64_t proto = protocolVersion;
    /** Compute pool width of the embedded SweepService. */
    std::uint64_t threads = 0;
    /** Requests currently waiting in the admission queue. */
    std::uint64_t queueDepth = 0;
    /** Admission queue bound (arrivals beyond it are shed). */
    std::uint64_t queueCapacity = 0;
    /** The server is draining and sheds new sweep requests. */
    bool draining = false;
};

/** Render the info reply line for @p id (no trailing newline). */
std::string encodeInfo(std::uint64_t id, const InfoReply &info);

/** Admission queue full: retry later (never silently queued). */
inline constexpr const char *errOverloaded = "overloaded";
/** The request line did not parse or failed validation. */
inline constexpr const char *errBadRequest = "bad_request";
/** The server is draining and accepts no new requests. */
inline constexpr const char *errShuttingDown = "shutting_down";
/** The request line exceeded the reader's line-length cap. */
inline constexpr const char *errTooLarge = "too_large";

/** Default LineReader cap: longest tolerated line, 1 MiB. */
inline constexpr std::size_t defaultMaxLineBytes = 1u << 20;

/**
 * An incremental newline splitter with a hard line-length cap --
 * the protocol's defence against a malicious or corrupt stream that
 * never sends '\n'. Feed raw received bytes in, pull events out:
 *
 *   reader.feed(chunk, n);
 *   std::string line;
 *   for (;;) {
 *       switch (reader.next(line)) {
 *       case LineReader::Next::Line:     handle(line); break;
 *       case LineReader::Next::TooLarge: reply(errTooLarge); break;
 *       case LineReader::Next::NeedMore: goto more;
 *       }
 *   }
 *
 * Buffered data never exceeds the cap plus one feed chunk: the moment
 * a partial line outgrows the cap its bytes are dropped and exactly
 * one TooLarge event is emitted; the reader then discards until the
 * terminating '\n' and resynchronises, so one oversized line costs
 * one error reply, not the connection. Events come out in stream
 * order.
 */
class LineReader
{
  public:
    explicit LineReader(std::size_t max_line_bytes = defaultMaxLineBytes);

    /** What next() found. */
    enum class Next
    {
        /** A complete line (without its '\n') was produced. */
        Line,
        /** An oversized line was detected and its bytes dropped. */
        TooLarge,
        /** The buffered bytes hold no further complete line. */
        NeedMore,
    };

    /** Append @p len received bytes. */
    void feed(const char *data, std::size_t len);

    /** Pull the next event; @p line is set only for Next::Line. */
    Next next(std::string &line);

    /** The line-length cap this reader enforces. */
    std::size_t maxLineBytes() const { return cap; }

    /** Oversized lines dropped so far. */
    std::uint64_t oversizedLines() const { return oversized; }

    /** Total bytes discarded to oversized lines so far. */
    std::uint64_t droppedBytes() const { return dropped; }

  private:
    std::size_t cap;
    std::string buffer;
    /** Inside an oversized line: discard until the next '\n'. */
    bool discarding = false;
    std::uint64_t oversized = 0;
    std::uint64_t dropped = 0;
};

} // namespace vsync::net

#endif // VSYNC_NET_PROTOCOL_HH
