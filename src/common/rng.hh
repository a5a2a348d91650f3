/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in vlsisync (wire delay variation, per-chip
 * process spread, self-timed service times) flows through Rng so that
 * every experiment is reproducible from a single 64-bit seed. The core
 * generator is xoshiro256++ seeded via SplitMix64, which is small, fast
 * and has no measurable bias for the volumes used here.
 */

#ifndef VSYNC_COMMON_RNG_HH
#define VSYNC_COMMON_RNG_HH

#include <array>
#include <cstdint>
#include <span>

#include "common/logging.hh"

namespace vsync
{

namespace detail
{

/** Left-rotate, xoshiro's building block (shared by the scalar step in
 *  rng.cc and the inlined fillUniform below). */
inline constexpr std::uint64_t
rotl64(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace detail

/**
 * Instruction sets the lane-interleaved xoshiro kernel
 * (Rng::propagateUniformLanes) can run on. Every ISA produces the same
 * bytes: the generator is integer add/xor/shift/rotate, the u64 ->
 * double conversion is exact, and multiply and add stay separate
 * (never fused).
 */
enum class RngIsa : std::uint8_t
{
    /** Portable code: each lane's own strided fillUniform, the oracle. */
    Scalar,
    /** AVX2: two 4 x u64 vectors per state word per 8-lane group. */
    Avx2,
    /** AVX-512F + DQ (and AVX2): one 8 x u64 vector per state word. */
    Avx512,
};

/** Lower-case name of @p isa ("scalar", "avx2", "avx512"). */
const char *rngIsaName(RngIsa isa);

/** True when this host can run @p isa (always true for Scalar). */
bool rngIsaSupported(RngIsa isa);

/** The widest ISA this host supports, detected once per process. */
RngIsa rngIsaBest();

/**
 * A tree-propagation pass for Rng::propagateUniformLanes: step k sets
 * row to[k] to row from[k] + u * scale[k] in every lane, u being that
 * lane's next uniform(lo, hi) draw. Steps run in k order, so a step
 * may read a row an earlier step wrote, and to[k] may equal from[k]
 * (a row recycled in place).
 */
struct LaneSteps
{
    const std::int32_t *from = nullptr;
    const std::int32_t *to = nullptr;
    const double *scale = nullptr;
    std::size_t count = 0;
};

/**
 * SplitMix64 generator, used to expand a single seed into a full state
 * vector and as a cheap standalone stream when quality demands are low.
 */
class SplitMix64
{
  public:
    /** Construct from a 64-bit seed. */
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Produce the next 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * xoshiro256++ pseudo-random generator with convenience distributions.
 *
 * Not thread safe; create one instance per logical random stream. Streams
 * for sub-experiments should be derived with deriveStream() so that adding
 * draws to one stream never perturbs another.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /**
     * Raw 64-bit values drawn so far (every distribution funnels
     * through next(), so this counts the stream's total consumption --
     * the observability layer's per-sweep "RNG draws" metric).
     */
    std::uint64_t draws() const { return drawCount; }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /**
     * Write count consecutive uniform(lo, hi) draws to out[0],
     * out[stride], ..., out[(count - 1) * stride]. @pre stride >= 1.
     *
     * Produces the exact draw sequence (and draws() accounting) of
     * calling uniform(lo, hi) once per slot, but with the xoshiro
     * state hoisted into registers for the whole span -- the scalar
     * path pays two non-inlined calls and a counter increment per
     * draw, which dominates tight sampling loops. Each lane of the
     * scalar propagateUniformLanes() pass draws through this call, and
     * it is the oracle every SIMD lane kernel is tested against.
     */
    void fillUniform(double lo, double hi, double *out,
                     std::size_t count, std::size_t stride);

    /**
     * Lane-interleaved draws fused with a tree propagation: for each
     * step k of @p steps, in order, rows[to[k] * stride + j] =
     * rows[from[k] * stride + j] + u * scale[k], with u lane j's next
     * uniform(lo, hi) draw -- the arrival recurrence
     * arrival(v) = arrival(parent) + draw * wireLength(v), one draw
     * per step per lane, so the draw matrix is never stored. The
     * lanes advance in lockstep, eight at a time in one vector per
     * state word on the SIMD ISAs. Slots and draws() counts are
     * bitwise the per-lane scalar recurrence on every ISA; slots of
     * columns j >= lanes.size() are untouched.
     * @pre stride >= lanes.size(); @p isa supported.
     */
    static void propagateUniformLanes(std::span<Rng> lanes, double lo,
                                      double hi, const LaneSteps &steps,
                                      double *rows, std::size_t stride,
                                      RngIsa isa = rngIsaBest());

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal variate (Box-Muller, cached pair). */
    double normal();

    /** Normal variate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli trial: true with probability p. */
    bool bernoulli(double p);

    /** Exponential variate with the given mean. @pre mean > 0. */
    double exponential(double mean);

    /**
     * Derive an independent child stream.
     *
     * @param salt distinguishes sibling streams derived from this one.
     * @return a generator whose sequence is uncorrelated with this one.
     */
    Rng deriveStream(std::uint64_t salt) const;

    /**
     * Counter-based substream derivation: the independent stream for
     * trial @p trial of the experiment seeded with @p seed.
     *
     * This is the Monte-Carlo engine's determinism contract: the stream
     * is a pure function of (seed, trial) — no shared generator state,
     * no dependence on which thread runs the trial or in what order —
     * so a parallel sweep is bit-identical to a serial one.
     */
    static Rng forTrial(std::uint64_t seed, std::uint64_t trial);

  private:
    std::array<std::uint64_t, 4> s;
    double cachedNormal;
    bool hasCachedNormal;
    std::uint64_t seedValue;
    std::uint64_t drawCount = 0;
};

inline void
Rng::fillUniform(double lo, double hi, double *out, std::size_t count,
                 std::size_t stride)
{
    VSYNC_ASSERT(lo <= hi, "bad uniform range [%g, %g)", lo, hi);
    VSYNC_ASSERT(stride >= 1, "fillUniform needs stride >= 1");
    // Local copies keep the generator state in registers across the
    // whole span; the scalar uniform(lo, hi) performs the identical
    // arithmetic (same expression shapes), so the two paths agree bit
    // for bit draw by draw.
    std::uint64_t s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3];
    const double scale = hi - lo;
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t r = detail::rotl64(s0 + s3, 23) + s0;
        const std::uint64_t t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = detail::rotl64(s3, 45);
        out[i * stride] =
            lo + scale * (static_cast<double>(r >> 11) * 0x1.0p-53);
    }
    s = {s0, s1, s2, s3};
    drawCount += count;
}

} // namespace vsync

#endif // VSYNC_COMMON_RNG_HH
