#include "mc/resilience.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <unordered_set>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "clocktree/buffering.hh"
#include "clocktree/builders.hh"
#include "common/logging.hh"
#include "core/skew_kernel.hh"
#include "fault/injector.hh"
#include "obs/metrics.hh"

namespace vsync::mc
{

std::string
distributionKindName(DistributionKind kind)
{
    switch (kind) {
      case DistributionKind::HTree:
        return "htree";
      case DistributionKind::Spine:
        return "spine";
      case DistributionKind::TrixGrid:
        return "trix-grid";
    }
    return "?";
}

namespace
{

/** Per-stage and per-net fault state bits of the compiled pass. */
enum : std::uint8_t
{
    /** The stage (tree element or grid link) is a dead buffer. */
    deadStage = 1,
    stuckLow = 2,
    stuckHigh = 4,
    glitched = 8,
};

/**
 * Per-thread scratch of the compiled pass, indexed by stage (tree
 * site i for the element feeding it, grid link) and by net (tree
 * site, grid node; the grid root is net rows * cols). Between trials
 * every slot holds the healthy state (flags 0, scale 1): a trial folds
 * its plan in and afterwards resets exactly the slots it touched.
 */
struct PassScratch
{
    std::vector<Time> delay;
    std::vector<double> scale;
    std::vector<std::uint8_t> stageFlags;
    std::vector<std::uint8_t> netFlags;
    /** Tree site arrivals. */
    std::vector<Time> arrival;

    /** Grow (never shrink) to @p stages and @p nets healthy slots. */
    void
    fit(std::size_t stages, std::size_t nets)
    {
        if (delay.size() < stages) {
            delay.resize(stages);
            scale.resize(stages, 1.0);
            stageFlags.resize(stages, 0);
            arrival.resize(stages);
        }
        if (netFlags.size() < nets)
            netFlags.resize(nets, 0);
    }
};

thread_local PassScratch passScratch;

/** Per-thread lane plans of runTrialBlock. */
thread_local PlanBlock planScratch;

/** Hit-list capacity a lane of planScratch keeps between blocks. */
constexpr std::size_t retainedHits = 4096;

/**
 * Abort unless the compiled pass reproduces desim for @p plan: every
 * fault applies at t = 0, and no dead or drifting stage is armed
 * after a stuck-at-high net (whose t = 0 rise would already be in
 * flight through it -- possible only in hand-built plans, since
 * generated plans list kinds in FaultKind order).
 */
void
requireCompilable(const fault::FaultPlan &plan)
{
    bool risen = false;
    for (const fault::Fault &f : plan.faults()) {
        VSYNC_ASSERT(f.onset == 0.0,
                     "fault onset %g: the compiled pass needs onset 0",
                     f.onset);
        if (f.kind == fault::FaultKind::StuckAtNet && f.stuckHigh)
            risen = true;
        else
            VSYNC_ASSERT(!risen ||
                             (f.kind != fault::FaultKind::DeadBuffer &&
                              f.kind != fault::FaultKind::DelayDrift),
                         "stage fault at site %zu armed after a "
                         "stuck-high net",
                         f.site);
    }
}

/**
 * Fold @p hits (in generation order) into @p ps, or with @p undo
 * restore the slots they touched. Buffer fault i hits stage i +
 * @p stage_offset (tree element i feeds site i + 1); net faults hit
 * their net index.
 */
void
foldHits(std::span<const fault::Fault> hits, const fault::FaultUniverse &u,
         std::size_t stage_offset, PassScratch &ps, bool undo)
{
    for (const fault::Fault &f : hits) {
        const std::size_t site = f.site;
        switch (f.kind) {
          case fault::FaultKind::DeadBuffer:
          case fault::FaultKind::DelayDrift: {
            VSYNC_ASSERT(site < u.bufferSites, "buffer site %zu of %zu",
                         site, u.bufferSites);
            const std::size_t i = site + stage_offset;
            if (undo) {
                ps.stageFlags[i] = 0;
                ps.scale[i] = 1.0;
            } else if (f.kind == fault::FaultKind::DeadBuffer) {
                ps.stageFlags[i] = deadStage;
            } else {
                ps.scale[i] = f.magnitude;
            }
            break;
          }
          case fault::FaultKind::StuckAtNet:
          case fault::FaultKind::TransientGlitch: {
            VSYNC_ASSERT(site < u.clockNets, "clock net %zu of %zu", site,
                         u.clockNets);
            const std::uint8_t bit =
                f.kind == fault::FaultKind::TransientGlitch ? glitched
                : f.stuckHigh                               ? stuckHigh
                                                            : stuckLow;
            ps.netFlags[site] =
                undo ? 0 : static_cast<std::uint8_t>(ps.netFlags[site] | bit);
            break;
          }
          case fault::FaultKind::SeveredHandshakeWire:
            break; // no handshake wires on a clock distribution
        }
    }
}

/**
 * First rise of a net whose stage(s) deliver the clock at @p driven:
 * a stuck-at-high net rose when it stuck (t = 0), a stuck-low one
 * never rises, and a glitch rises at t = 0, before any clock edge.
 */
inline Time
netArrival(std::uint8_t net, Time driven)
{
    if (net & stuckHigh)
        return 0.0;
    if (net & stuckLow)
        return infinity;
    return (net & glitched) ? 0.0 : driven;
}

// min / max of two arrivals as single minsd / maxsd instructions: the
// arrivals are never NaN or -0, so these equal std::min / std::max bit
// for bit, and random delays leave a compare-and-jump nothing to
// predict.
#if defined(__x86_64__)
inline Time
minTime(Time a, Time b)
{
    return _mm_cvtsd_f64(_mm_min_sd(_mm_set_sd(a), _mm_set_sd(b)));
}

inline Time
maxTime(Time a, Time b)
{
    return _mm_cvtsd_f64(_mm_max_sd(_mm_set_sd(a), _mm_set_sd(b)));
}
#else
inline Time
minTime(Time a, Time b)
{
    return std::min(a, b);
}

inline Time
maxTime(Time a, Time b)
{
    return std::max(a, b);
}
#endif

/** maxTime(v, deadFloor[dead]) is v through a live stage and
 *  infinity through a dead one: the dead select without a branch. */
constexpr std::array<Time, 2> deadFloor{-infinity, infinity};

/** Compiled tree pass over folded @p ps: cell c's arrival to
 *  out[c * stride]. */
void
treeArrivals(const ResilienceScenario &s, PassScratch &ps, Rng &delay_rng,
             Time *out, std::size_t stride)
{
    const std::size_t n = s.siteParent.size();
    // One unit delay per non-root site, in ClockNet construction order.
    Time *unit = ps.delay.data();
    delay_rng.fillUniform(s.rc.delay.lo(), s.rc.delay.hi(), unit + 1,
                          n - 1, 1);

    Time *a = ps.arrival.data();
    a[0] = netArrival(ps.netFlags[0], 0.0);
    for (std::size_t i = 1; i < n; ++i) {
        // The stage expression of the desim oracle's delay model.
        const Time stage = s.siteWire[i] * unit[i] +
                           (s.siteIsBuffer[i] ? s.rc.bufferDelay : 0.0);
        const bool dead = ps.stageFlags[i] & deadStage;
        const Time driven =
            maxTime(a[s.siteParent[i]] + stage * ps.scale[i], deadFloor[dead]);
        a[i] = ps.netFlags[i] ? netArrival(ps.netFlags[i], driven)
                              : driven;
    }

    for (std::size_t c = 0; c < s.cellSite.size(); ++c)
        out[c * stride] = a[s.cellSite[c]];
}

/** Compiled TRIX pass over folded @p ps: node (r, c) to
 *  out[(r * cols + c) * stride]. */
void
gridArrivals(const ResilienceScenario &s, PassScratch &ps, Rng &delay_rng,
             Time *out, std::size_t stride)
{
    const std::size_t nodes =
        static_cast<std::size_t>(s.rows) * static_cast<std::size_t>(s.cols);
    // One delay per link, in TrixGrid construction order (r, c, k).
    Time *d = ps.delay.data();
    delay_rng.fillUniform(s.rc.delay.lo(), s.rc.delay.hi(), d, 3 * nodes,
                          1);
    for (std::size_t l = 0; l < 3 * nodes; ++l)
        d[l] = s.rc.bufferDelay + d[l];

    const Time root = netArrival(ps.netFlags[nodes], 0.0);
    for (int r = 0; r < s.rows; ++r) {
        for (int c = 0; c < s.cols; ++c) {
            const std::size_t node =
                static_cast<std::size_t>(r) * s.cols + c;
            // Layer r - 1 feeds layer r; layer 0 hangs off the root.
            const Time *prev =
                r == 0 ? nullptr : out + (node - c - s.cols) * stride;
            std::array<Time, 3> in;
            for (int k = 0; k < 3; ++k) {
                const std::size_t l = 3 * node + k;
                const int pc = std::clamp(c - 1 + k, 0, s.cols - 1);
                const Time src = prev ? prev[pc * stride] : root;
                const bool dead = ps.stageFlags[l] & deadStage;
                in[k] = maxTime(src + d[l] * ps.scale[l], deadFloor[dead]);
            }
            // The median vote: the second link to deliver fires.
            const Time median =
                maxTime(minTime(in[0], in[1]),
                        minTime(maxTime(in[0], in[1]), in[2]));
            out[node * stride] = netArrival(ps.netFlags[node], median);
        }
    }
}

/**
 * First arrivals of @p s under @p hits (in generation order): fold
 * them into the per-thread scratch, run the compiled pass, and
 * restore the healthy slots.
 */
void
arrivalsUnder(const ResilienceScenario &s,
              std::span<const fault::Fault> hits, Rng &delay_rng,
              Time *out, std::size_t stride)
{
    PassScratch &ps = passScratch;
    if (s.kind == DistributionKind::TrixGrid) {
        const std::size_t nodes = static_cast<std::size_t>(s.rows) *
                                  static_cast<std::size_t>(s.cols);
        ps.fit(3 * nodes, nodes + 1);
        foldHits(hits, s.universe, 0, ps, false);
        gridArrivals(s, ps, delay_rng, out, stride);
        foldHits(hits, s.universe, 0, ps, true);
    } else {
        const std::size_t n = s.siteParent.size();
        ps.fit(n, n);
        foldHits(hits, s.universe, 1, ps, false);
        treeArrivals(s, ps, delay_rng, out, stride);
        foldHits(hits, s.universe, 1, ps, true);
    }
}

/** Rows of uniform() draws one lockstep step of drawPlanBlock makes. */
constexpr std::size_t planRows = 64;

/** The steps that make Rng::propagateUniformLanes write each lane's
 *  next draws: row k + 1 = row 0 (zeros) + uniform(0, 1) * 1, which
 *  is exactly uniform(). */
struct UniformRows
{
    std::array<std::int32_t, planRows> from{};
    std::array<std::int32_t, planRows> to{};
    std::array<double, planRows> scale{};

    constexpr UniformRows()
    {
        for (std::size_t k = 0; k < planRows; ++k) {
            to[k] = static_cast<std::int32_t>(k + 1);
            scale[k] = 1.0;
        }
    }
};

constexpr UniformRows uniformRows;

/** Trials per lane group of the lane pass. */
constexpr std::size_t laneCount = PlanBlock::lanes;

/** One value per trial of a lane group. The lane pass writes each
 *  lane operation as a plain loop over the lanes, which the compiler
 *  turns into vector instructions at the width of the pass's ISA;
 *  every lane computes the one-trial pass's expression. */
struct alignas(64) Lanes
{
    Time v[laneCount];
};

/** Lane codes that force an arrival (any code >= 0 is a stage scale,
 *  1 when healthy). */
constexpr Time forceInf = -infinity;
constexpr Time forceZero = -1.0;

/**
 * The code of a slot under fault bits @p flags with stage scale
 * @p scale, in the one-trial pass's precedence: a stuck net forces
 * its level, a glitch forces a rise at t = 0, a dead stage never
 * delivers, and otherwise the stage delay is scaled.
 */
inline Time
laneCode(std::uint8_t flags, Time scale)
{
    if (flags & stuckHigh)
        return forceZero;
    if (flags & stuckLow)
        return forceInf;
    if (flags & glitched)
        return forceZero;
    if (flags & deadStage)
        return forceInf;
    return scale;
}

/** Arrival @p x through a slot of code @p c. */
inline Time
applyCode(Time c, Time x)
{
    return c >= 0.0 ? x : (c < forceZero ? infinity : 0.0);
}

/**
 * Per-thread scratch of the lane pass. A fault slot holds the fault
 * state of one stage and net: tree site i is slot i (the stage
 * feeding it and its net; buffer fault k hits slot k + 1, net fault k
 * slot k), grid link l is slot l and grid net k is slot
 * 3 * rows * cols + k (the root is net rows * cols). Lane j of slot s
 * is flags[s * laneCount + j] and code[s].v[j]. Between blocks every
 * slot is healthy (flags 0, code 1). arrival holds lane-major
 * arrivals: every tree site, or the grid's previous and current layer.
 */
struct LaneScratch
{
    std::vector<std::uint8_t> flags;
    std::vector<Lanes> code;
    std::vector<Lanes> arrival;

    /** Grow (never shrink) to @p slots healthy slots and @p rows
     *  arrival rows. */
    void
    fit(std::size_t slots, std::size_t rows)
    {
        if (code.size() < slots) {
            flags.resize(slots * laneCount, 0);
            Lanes healthy;
            std::fill(std::begin(healthy.v), std::end(healthy.v), 1.0);
            code.resize(slots, healthy);
        }
        if (arrival.size() < rows)
            arrival.resize(rows);
    }
};

thread_local LaneScratch laneScratch;

/**
 * Fold lane @p lane's @p hits into @p ls, or with @p undo restore the
 * slots they touched. Buffer fault k hits slot k + @p stage_offset,
 * net fault k slot @p net_base + k.
 */
void
foldLaneHits(std::span<const fault::Fault> hits,
             const fault::FaultUniverse &u, std::size_t stage_offset,
             std::size_t net_base, LaneScratch &ls, std::size_t lane,
             bool undo)
{
    const auto slotOf = [&](const fault::Fault &f) {
        if (f.kind == fault::FaultKind::DeadBuffer ||
            f.kind == fault::FaultKind::DelayDrift) {
            VSYNC_ASSERT(f.site < u.bufferSites, "buffer site %zu of %zu",
                         f.site, u.bufferSites);
            return f.site + stage_offset;
        }
        VSYNC_ASSERT(f.site < u.clockNets, "clock net %zu of %zu", f.site,
                     u.clockNets);
        return net_base + f.site;
    };
    // Every hit but a drift sets a forcing bit, and laneCode ignores
    // the scale once one is set, so recoding at each hit gives the
    // code of the slot's final bits in any hit order.
    for (const fault::Fault &f : hits) {
        if (f.kind == fault::FaultKind::SeveredHandshakeWire)
            continue; // no handshake wires on a clock distribution
        const std::size_t slot = slotOf(f);
        std::uint8_t &flags = ls.flags[slot * laneCount + lane];
        Time &code = ls.code[slot].v[lane];
        if (undo) {
            flags = 0;
            code = 1.0;
        } else if (f.kind == fault::FaultKind::DelayDrift) {
            VSYNC_ASSERT(f.magnitude >= 0.0, "drift factor %g",
                         f.magnitude);
            code = laneCode(flags, f.magnitude);
        } else {
            flags |= f.kind == fault::FaultKind::DeadBuffer ? deadStage
                     : f.kind == fault::FaultKind::TransientGlitch
                         ? glitched
                     : f.stuckHigh ? stuckHigh
                                   : stuckLow;
            code = laneCode(flags, code);
        }
    }
}

/** A chunk of lane draws: rows[(k + 1) * laneCount + j] is lane j's
 *  next uniform(lo, hi) draw, for k < the chunk's count. */
using DrawRows = std::array<double, (planRows + 1) * laneCount>;

void
drawRows(std::span<Rng> lanes, const core::WireDelay &delay,
         std::size_t count, DrawRows &rows, RngIsa isa)
{
    const LaneSteps steps{uniformRows.from.data(), uniformRows.to.data(),
                          uniformRows.scale.data(), count};
    Rng::propagateUniformLanes(lanes, delay.lo(), delay.hi(), steps,
                               rows.data(), laneCount, isa);
}

/** Store lanes [0, @p m) of @p x to dst[0, m). */
inline void
storeLanes(Time *dst, const Lanes &x, std::size_t m)
{
    if (m == laneCount)
        std::memcpy(dst, x.v, sizeof x.v);
    else
        std::memcpy(dst, x.v, m * sizeof(Time));
}

/**
 * treeArrivals for a lane group: lane j draws its delays from lanes[j]
 * -- 64 rows at a time through Rng::propagateUniformLanes over a zero
 * row, so each lane replays its scalar delay sequence -- reads lane j
 * of the fault slots, and writes its cell c arrival to
 * out[c * stride + j]. Every site is a[parent] + (wire * u + buffer)
 * * code in all lanes at once, branch-free; a negative code forces
 * its lane.
 */
[[gnu::always_inline]] inline void
treeLanes(const ResilienceScenario &s, LaneScratch &ls,
          std::span<Rng> lanes, Time *out, std::size_t stride, RngIsa isa)
{
    const std::size_t n = s.siteParent.size();
    const Lanes *code = ls.code.data();
    Lanes *a = ls.arrival.data();
    for (std::size_t j = 0; j < laneCount; ++j)
        a[0].v[j] = applyCode(code[0].v[j], 0.0);
    alignas(64) DrawRows rows{};
    for (std::size_t i0 = 1; i0 < n; i0 += planRows) {
        const std::size_t count = std::min(planRows, n - i0);
        drawRows(lanes, s.rc.delay, count, rows, isa);
        for (std::size_t k = 0; k < count; ++k) {
            const std::size_t i = i0 + k;
            const double *u = rows.data() + (k + 1) * laneCount;
            const Lanes &p = a[s.siteParent[i]];
            const Lanes &c = code[i];
            const Time wire = s.siteWire[i];
            const Time add = s.siteIsBuffer[i] ? s.rc.bufferDelay : 0.0;
            Lanes x;
            for (std::size_t j = 0; j < laneCount; ++j)
                x.v[j] =
                    applyCode(c.v[j], p.v[j] + (wire * u[j] + add) * c.v[j]);
            a[i] = x;
        }
    }
    for (std::size_t c = 0; c < s.cellSite.size(); ++c)
        storeLanes(out + c * stride, a[s.cellSite[c]], lanes.size());
}

/** Rows of link draws per chunk of gridLanes: whole nodes. */
constexpr std::size_t gridRows = planRows / 3 * 3;

/**
 * gridArrivals for a lane group, lanes and slots as in treeLanes:
 * three draws per node and lane in construction order (r, c, k), each
 * link src + (buffer + u) * code, and the median vote and the node's
 * net code in all lanes at once. Only two layers of lanes are kept.
 */
[[gnu::always_inline]] inline void
gridLanes(const ResilienceScenario &s, LaneScratch &ls,
          std::span<Rng> lanes, Time *out, std::size_t stride, RngIsa isa)
{
    const std::size_t cols = static_cast<std::size_t>(s.cols);
    const std::size_t nodes = static_cast<std::size_t>(s.rows) * cols;
    const Lanes *code = ls.code.data();
    const Lanes *netCode = code + 3 * nodes;
    const Time buffer = s.rc.bufferDelay;
    Lanes root;
    for (std::size_t j = 0; j < laneCount; ++j)
        root.v[j] = applyCode(netCode[nodes].v[j], 0.0);
    // Layer r of the grid lives in layers[(r % 2) * cols, + cols).
    Lanes *layers = ls.arrival.data();
    alignas(64) DrawRows rows{};
    std::size_t next = 0;
    std::size_t have = 0;
    for (std::size_t node = 0; node < nodes; ++node) {
        const std::size_t r = node / cols;
        const std::size_t c = node % cols;
        if (next == have) {
            have = std::min(gridRows, 3 * (nodes - node));
            drawRows(lanes, s.rc.delay, have, rows, isa);
            next = 0;
        }
        // Layer r - 1 feeds layer r; layer 0 hangs off the root.
        const Lanes *prev = r == 0 ? nullptr : layers + ((r - 1) % 2) * cols;
        std::array<Lanes, 3> in;
        for (std::size_t k = 0; k < 3; ++k) {
            // Column c - 1 + k, clamped to the grid.
            const std::size_t pc =
                std::min(c + k == 0 ? 0 : c + k - 1, cols - 1);
            const Lanes &src = prev ? prev[pc] : root;
            const Lanes &lc = code[3 * node + k];
            const double *u = rows.data() + (next + k + 1) * laneCount;
            for (std::size_t j = 0; j < laneCount; ++j)
                in[k].v[j] =
                    applyCode(lc.v[j], src.v[j] + (buffer + u[j]) * lc.v[j]);
        }
        next += 3;
        // The median vote, as gridArrivals takes it: minTime(a, b) is
        // a < b ? a : b and maxTime(a, b) is a > b ? a : b.
        Lanes median;
        for (std::size_t j = 0; j < laneCount; ++j) {
            const Time a = in[0].v[j];
            const Time b = in[1].v[j];
            const Time lo = a < b ? a : b;
            const Time hi = a > b ? a : b;
            const Time mid = hi < in[2].v[j] ? hi : in[2].v[j];
            median.v[j] = applyCode(netCode[node].v[j], lo > mid ? lo : mid);
        }
        layers[(r % 2) * cols + c] = median;
        storeLanes(out + node * stride, median, lanes.size());
    }
}

// The lane pass compiled for each ISA: the same operations, so the
// same bits, at the ISA's vector width.
[[gnu::always_inline]] inline void
lanePassBody(const ResilienceScenario &s, LaneScratch &ls,
             std::span<Rng> lanes, Time *out, std::size_t stride,
             RngIsa isa)
{
    if (s.kind == DistributionKind::TrixGrid)
        gridLanes(s, ls, lanes, out, stride, isa);
    else
        treeLanes(s, ls, lanes, out, stride, isa);
}

void
lanePassBase(const ResilienceScenario &s, LaneScratch &ls,
             std::span<Rng> lanes, Time *out, std::size_t stride,
             RngIsa isa)
{
    lanePassBody(s, ls, lanes, out, stride, isa);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void
lanePassAvx2(const ResilienceScenario &s, LaneScratch &ls,
             std::span<Rng> lanes, Time *out, std::size_t stride,
             RngIsa isa)
{
    lanePassBody(s, ls, lanes, out, stride, isa);
}

__attribute__((target("avx512f"))) void
lanePassAvx512(const ResilienceScenario &s, LaneScratch &ls,
               std::span<Rng> lanes, Time *out, std::size_t stride,
               RngIsa isa)
{
    lanePassBody(s, ls, lanes, out, stride, isa);
}
#endif

void
lanePass(const ResilienceScenario &s, LaneScratch &ls, std::span<Rng> lanes,
         Time *out, std::size_t stride, RngIsa isa)
{
#if defined(__x86_64__)
    if (isa == RngIsa::Avx512)
        return lanePassAvx512(s, ls, lanes, out, stride, isa);
    if (isa == RngIsa::Avx2)
        return lanePassAvx2(s, ls, lanes, out, stride, isa);
#endif
    lanePassBase(s, ls, lanes, out, stride, isa);
}

/** hitRows in plain C++: bit j of hits[r] is row[r * 8 + j] < rate. */
void
hitRowsScalar(const double *row, std::size_t count, double rate,
              std::uint8_t *hits)
{
    for (std::size_t r = 0; r < count; ++r) {
        unsigned m = 0;
        for (std::size_t j = 0; j < PlanBlock::lanes; ++j)
            m |= static_cast<unsigned>(row[r * PlanBlock::lanes + j] < rate)
                 << j;
        hits[r] = static_cast<std::uint8_t>(m);
    }
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void
hitRowsAvx2(const double *row, std::size_t count, double rate,
            std::uint8_t *hits)
{
    const __m256d p = _mm256_set1_pd(rate);
    for (std::size_t r = 0; r < count; ++r) {
        const double *u = row + r * PlanBlock::lanes;
        const int lo = _mm256_movemask_pd(
            _mm256_cmp_pd(_mm256_load_pd(u), p, _CMP_LT_OQ));
        const int hi = _mm256_movemask_pd(
            _mm256_cmp_pd(_mm256_load_pd(u + 4), p, _CMP_LT_OQ));
        hits[r] = static_cast<std::uint8_t>(lo | hi << 4);
    }
}
#endif

/**
 * Compare every draw of a chunk with @p rate: row r's lane hits go to
 * bit j of hits[r]. The AVX2 compare gives the bytes of the scalar
 * u < rate (an ordered compare; draws are never NaN). AVX-512 hosts
 * use it too: a zmm compare measured no clear gain (EXPERIMENTS
 * PERF-RES).
 */
void
hitRows(const double *row, std::size_t count, double rate,
        std::uint8_t *hits, RngIsa isa)
{
#if defined(__x86_64__)
    if (isa != RngIsa::Scalar)
        return hitRowsAvx2(row, count, rate, hits);
#endif
    hitRowsScalar(row, count, rate, hits);
}

/**
 * Transpose a chunk's row hit bytes (hits[r] bit j) into per-lane
 * masks (lane[j] bit r), eight rows at a time as 8x8 bit matrices.
 * Rows past a short chunk keep stale bytes: their bits lie beyond
 * the row where the scan stops.
 */
void
laneMasks(const std::array<std::uint8_t, planRows> &hits,
          std::array<std::uint64_t, PlanBlock::lanes> &lane)
{
    lane.fill(0);
    for (std::size_t r0 = 0; r0 < planRows; r0 += 8) {
        std::uint64_t x = 0;
        for (std::size_t i = 0; i < 8; ++i)
            x |= static_cast<std::uint64_t>(hits[r0 + i]) << (8 * i);
        if (x == 0)
            continue;
        // Bit 8r + j moves to bit 8j + r (Hacker's Delight, 7-3).
        std::uint64_t t = (x ^ (x >> 7)) & 0x00aa00aa00aa00aaULL;
        x ^= t ^ (t << 7);
        t = (x ^ (x >> 14)) & 0x0000cccc0000ccccULL;
        x ^= t ^ (t << 14);
        t = (x ^ (x >> 28)) & 0x00000000f0f0f0f0ULL;
        x ^= t ^ (t << 28);
        for (std::size_t j = 0; j < PlanBlock::lanes; ++j)
            lane[j] |= ((x >> (8 * j)) & 0xff) << r0;
    }
}

/**
 * cfg.trials trials of @p scenario through runChunks, on
 * @p pool or, when null, on a pool runChunks owns.
 */
ResiliencePoint
sweepScenario(const ResilienceScenario &scenario, double fault_rate,
              const McConfig &cfg, ThreadPool *pool)
{
    ResiliencePoint point;
    point.faultRate = fault_rate;
    point.maxCommSkew.samples.assign(cfg.trials, 0.0);
    point.clockedFraction.samples.assign(cfg.trials, 0.0);
    std::vector<double> faults(cfg.trials, 0.0);

    // Observability: per-kind injected-fault counters, resolved before
    // the fan-out (registration locks; Counter::inc is lock-free).
    TrialCounters counters;
    if (cfg.metrics) {
        for (int k = 0; k < fault::faultKindCount; ++k)
            counters.faultKinds[static_cast<std::size_t>(k)] =
                &cfg.metrics->counter(
                    "mc.resilience.faults." +
                    fault::faultKindName(static_cast<fault::FaultKind>(k)));
    }

    const ChunkFn chunk = [&](std::size_t begin, std::size_t end) {
        std::vector<Time> scratch; // reused across the chunk's blocks
        const std::size_t n = end - begin;
        return scenario.runTrialRange(
            cfg.seed, begin, {point.maxCommSkew.samples.data() + begin, n},
            {point.clockedFraction.samples.data() + begin, n},
            {faults.data() + begin, n}, cfg.metrics ? &counters : nullptr,
            scratch);
    };
    if (pool)
        runChunks(*pool, cfg, chunk);
    else
        runChunks(cfg, chunk);
    reduceInTrialOrder(point.maxCommSkew);
    reduceInTrialOrder(point.clockedFraction);
    double total = 0.0;
    for (const double f : faults)
        total += f;
    point.meanFaults = cfg.trials ? total / cfg.trials : 0.0;
    return point;
}

} // namespace

std::uint64_t
drawPlanBlock(const fault::FaultUniverse &universe,
              const fault::FaultRates &rates, std::uint64_t seed,
              std::uint64_t first_trial, std::size_t count, PlanBlock &out,
              RngIsa isa)
{
    constexpr std::size_t lanes = PlanBlock::lanes;
    VSYNC_ASSERT(count >= 1 && count <= lanes,
                 "%zu trials per plan block (1..%zu supported)", count,
                 lanes);
    std::array<Rng, lanes> plan_rng;
    std::array<Rng, lanes> stream;
    for (std::size_t j = 0; j < count; ++j) {
        plan_rng[j] =
            Rng::forTrial(seed, first_trial + j).deriveStream(planSalt);
        out.hits[j].clear();
        out.draws[j] = 0;
    }
    // Row 0 stays zero; row r + 1 holds every lane's draw r.
    alignas(64) std::array<double, (planRows + 1) * lanes> rows{};
    std::array<std::uint8_t, planRows> hits{};
    std::array<std::uint64_t, lanes> laneHits;
    for (int k = 0; k < fault::faultKindCount; ++k) {
        const fault::FaultKind kind = static_cast<fault::FaultKind>(k);
        const double rate = fault::rateOf(kind, rates);
        const std::size_t sites = fault::sitesOf(kind, universe);
        if (rate <= 0.0 || sites == 0)
            continue;
        // A drift or stuck-at hit consumes one more draw of its lane.
        const bool extraDraw = kind == fault::FaultKind::DelayDrift ||
                               kind == fault::FaultKind::StuckAtNet;
        // Rng::uniform(lo, hi) and bernoulli(0.5) on the lane's draw u.
        const auto finish = [&](fault::Fault &hit, double u) {
            if (kind == fault::FaultKind::StuckAtNet) {
                hit.stuckHigh = u < 0.5;
                return;
            }
            VSYNC_ASSERT(rates.driftFactorLo <= rates.driftFactorHi,
                         "bad uniform range [%g, %g)", rates.driftFactorLo,
                         rates.driftFactorHi);
            hit.magnitude = rates.driftFactorLo +
                            (rates.driftFactorHi - rates.driftFactorLo) * u;
        };
        for (std::size_t j = 0; j < count; ++j)
            stream[j] =
                plan_rng[j].deriveStream(static_cast<std::uint64_t>(k));
        // Per lane: the next site, and whether its last hit still
        // waits for its extra draw (the first of the next chunk).
        std::array<std::size_t, lanes> next{};
        std::array<bool, lanes> pending{};
        for (;;) {
            std::size_t need = 0;
            for (std::size_t j = 0; j < count; ++j)
                need = std::max(need, sites - next[j] + pending[j]);
            if (need == 0)
                break;
            const LaneSteps steps{uniformRows.from.data(),
                                  uniformRows.to.data(),
                                  uniformRows.scale.data(),
                                  std::min(planRows, need)};
            Rng::propagateUniformLanes({stream.data(), count}, 0.0, 1.0,
                                       steps, rows.data(), lanes, isa);
            hitRows(rows.data() + lanes, steps.count, rate, hits.data(),
                    isa);
            laneMasks(hits, laneHits);
            for (std::size_t j = 0; j < count; ++j) {
                // Lane j's draw r is u[r * lanes]; bit r of laneHits[j]
                // says whether u[r * lanes] < rate.
                const double *u = rows.data() + lanes + j;
                std::vector<fault::Fault> &plan = out.hits[j];
                std::size_t r = 0;
                if (pending[j]) {
                    finish(plan.back(), u[0]);
                    pending[j] = false;
                    r = 1;
                }
                std::size_t site = next[j];
                for (;;) {
                    // Rows r..end - 1 decide one site each, up to the
                    // lane's next hit.
                    const std::size_t end =
                        std::min(steps.count, r + (sites - site));
                    const std::uint64_t ahead =
                        r < planRows ? laneHits[j] >> r : 0;
                    const std::size_t h =
                        ahead ? r + std::countr_zero(ahead) : planRows;
                    if (h >= end) {
                        site += end - r;
                        r = end;
                        break;
                    }
                    site += h - r;
                    fault::Fault hit;
                    hit.site = site;
                    hit.kind = kind;
                    if (kind == fault::FaultKind::TransientGlitch)
                        hit.magnitude = rates.glitchWidth;
                    plan.push_back(hit);
                    ++site;
                    r = h + 1;
                    if (extraDraw) {
                        if (r < steps.count)
                            finish(plan.back(), u[r++ * lanes]);
                        else
                            pending[j] = true;
                    }
                }
                next[j] = site;
                out.draws[j] += r;
            }
        }
    }
    std::uint64_t draws = 0;
    for (std::size_t j = 0; j < count; ++j)
        draws += out.draws[j];
    return draws;
}

void
ResilienceScenario::cellArrivals(const fault::FaultPlan &plan,
                                 Rng &delay_rng, Time *out,
                                 std::size_t stride) const
{
    requireCompilable(plan);
    arrivalsUnder(*this, plan.faults(), delay_rng, out, stride);
}

fault::DistributionOutcome
ResilienceScenario::runTrial(std::uint64_t seed, std::uint64_t trial,
                             const TrialCounters *counters) const
{
    // FaultPlan::generate, not drawPlanBlock: this path is the sweep's
    // independent reference.
    Rng trial_rng = Rng::forTrial(seed, trial);
    Rng plan_rng = trial_rng.deriveStream(planSalt);
    Rng delay_rng = trial_rng.deriveStream(delaySalt);
    const fault::FaultPlan plan =
        fault::FaultPlan::generate(universe, rates, plan_rng);
    fault::DistributionOutcome out;
    out.cellArrival.resize(kernel->cellCount());
    cellArrivals(plan, delay_rng, out.cellArrival.data());
    if (counters) {
        for (const fault::Fault &f : plan.faults())
            if (obs::Counter *c =
                    counters->faultKinds[static_cast<std::size_t>(f.kind)])
                c->inc();
    }
    out.faultCount = plan.size();
    const core::ArrivalSkew skew = kernel->arrivalSkew(out.cellArrival);
    out.clockedFraction = skew.clockedFraction;
    out.maxCommSkew = skew.maxCommSkew;
    out.clockedPairs = skew.clockedPairs;
    out.pairCount = skew.pairCount;
    return out;
}

std::uint64_t
ResilienceScenario::runTrialBlock(
    std::uint64_t seed, std::uint64_t first_trial, std::size_t count,
    std::span<double> out_skew, std::span<double> out_clocked,
    std::span<double> out_faults, const TrialCounters *counters,
    std::vector<Time> &lane_scratch, RngIsa isa) const
{
    VSYNC_ASSERT(count >= 1 && count <= core::SkewKernel::maxLanes,
                 "%zu trials per block (1..%zu supported)", count,
                 core::SkewKernel::maxLanes);
    VSYNC_ASSERT(out_skew.size() == count &&
                     out_clocked.size() == count &&
                     out_faults.size() == count,
                 "output spans must cover the %zu block trials", count);
    const std::size_t stride = core::SkewKernel::laneStride(count);
    const std::size_t cells = kernel->cellCount();
    lane_scratch.resize(cells * stride);
    // Fault slots as LaneScratch lays them out.
    const bool grid = kind == DistributionKind::TrixGrid;
    const std::size_t stageOffset = grid ? 0 : 1;
    const std::size_t netBase = grid ? 3 * cells : 0;
    LaneScratch &ls = laneScratch;
    if (grid)
        ls.fit(netBase + cells + 1, 2 * static_cast<std::size_t>(cols));
    else
        ls.fit(siteParent.size(), siteParent.size());
    // Per lane group: the plans are drawn in lockstep and folded into
    // the group's lanes, one lane pass writes the group's columns of
    // the cell matrix, and one blocked pair fold reduces all groups.
    PlanBlock &plans = planScratch;
    std::array<std::uint64_t, fault::faultKindCount> kindHits{};
    std::uint64_t draws = 0;
    for (std::size_t g = 0; g < count; g += laneCount) {
        const std::size_t m = std::min(laneCount, count - g);
        draws += drawPlanBlock(universe, rates, seed, first_trial + g, m,
                               plans, isa);
        std::array<Rng, laneCount> delay;
        for (std::size_t j = 0; j < m; ++j) {
            const std::vector<fault::Fault> &hits = plans.hits[j];
            delay[j] = Rng::forTrial(seed, first_trial + g + j)
                           .deriveStream(delaySalt);
            foldLaneHits(hits, universe, stageOffset, netBase, ls, j, false);
            out_faults[g + j] = static_cast<double>(hits.size());
            if (counters)
                for (const fault::Fault &h : hits)
                    ++kindHits[static_cast<std::size_t>(h.kind)];
        }
        lanePass(*this, ls, {delay.data(), m}, lane_scratch.data() + g,
                 stride, isa);
        for (std::size_t j = 0; j < m; ++j) {
            draws += delay[j].draws();
            foldLaneHits(plans.hits[j], universe, stageOffset, netBase, ls,
                         j, true);
        }
    }
    // Sparse plans reuse the lists; a dense one is not held for the
    // thread's life (assigning {} would keep its capacity).
    for (std::vector<fault::Fault> &hits : plans.hits)
        if (hits.capacity() > retainedHits)
            hits = std::vector<fault::Fault>();
    if (counters) {
        for (std::size_t k = 0; k < kindHits.size(); ++k)
            if (obs::Counter *c = counters->faultKinds[k]; c && kindHits[k])
                c->inc(kindHits[k]);
    }
    std::array<core::ArrivalSkew, core::SkewKernel::maxLanes> reduced;
    kernel->arrivalSkewBlock(
        std::span<const Time>(lane_scratch.data(), cells * stride),
        std::span<core::ArrivalSkew>(reduced.data(), count), isa);
    for (std::size_t j = 0; j < count; ++j) {
        out_skew[j] = reduced[j].maxCommSkew;
        out_clocked[j] = reduced[j].clockedFraction;
    }
    return draws;
}

std::uint64_t
ResilienceScenario::runTrialRange(std::uint64_t seed,
                                  std::uint64_t first_trial,
                                  std::span<double> out_skew,
                                  std::span<double> out_clocked,
                                  std::span<double> out_faults,
                                  const TrialCounters *counters,
                                  std::vector<Time> &scratch,
                                  RngIsa isa) const
{
    const std::size_t n = out_skew.size();
    VSYNC_ASSERT(out_clocked.size() == n && out_faults.size() == n,
                 "output spans must cover the %zu range trials", n);
    constexpr std::size_t blockW = core::SkewKernel::blockWidth();
    std::uint64_t draws = 0;
    for (std::size_t i = 0; i < n; i += blockW) {
        const std::size_t w = std::min(blockW, n - i);
        draws += runTrialBlock(seed, first_trial + i, w,
                               out_skew.subspan(i, w),
                               out_clocked.subspan(i, w),
                               out_faults.subspan(i, w), counters, scratch,
                               isa);
    }
    return draws;
}

ResilienceScenario
compileResilienceScenario(const layout::Layout &l, int rows, int cols,
                          DistributionKind kind, double fault_rate,
                          const ResilienceConfig &rc,
                          const core::KernelProvider &kernels)
{
    VSYNC_ASSERT(static_cast<std::size_t>(rows) *
                         static_cast<std::size_t>(cols) ==
                     l.size(),
                 "grid %dx%d does not cover %zu cells", rows, cols,
                 l.size());
    ResilienceScenario s;
    s.kind = kind;
    s.rows = rows;
    s.cols = cols;
    s.rc = rc;
    s.rates = fault::FaultRates::mixed(fault_rate);
    if (kind == DistributionKind::TrixGrid) {
        s.universe = fault::TrixGrid::universe(rows, cols);
        s.kernel = kernels(l, nullptr);
        return s;
    }
    s.tree = kind == DistributionKind::HTree
                 ? clocktree::buildHTreeGrid(l, rows, cols)
                 : clocktree::buildSpine(l);
    s.btree = clocktree::BufferedClockTree::insertBuffers(s.tree,
                                                          rc.bufferSpacing);
    s.universe = fault::universeOf(s.btree);
    s.kernel = kernels(l, &s.tree);

    const std::vector<clocktree::BufferedSite> &sites = s.btree.sites();
    s.siteParent.assign(sites.size(), 0);
    s.siteWire.assign(sites.size(), 0.0);
    s.siteIsBuffer.assign(sites.size(), 0);
    for (std::size_t i = 1; i < sites.size(); ++i) {
        VSYNC_ASSERT(sites[i].parent >= 0 &&
                         static_cast<std::size_t>(sites[i].parent) < i,
                     "site %zu precedes its parent %d", i,
                     sites[i].parent);
        s.siteParent[i] = static_cast<std::uint32_t>(sites[i].parent);
        s.siteWire[i] = sites[i].wireFromParent;
        s.siteIsBuffer[i] = sites[i].isBuffer;
    }
    s.cellSite.resize(s.kernel->cellCount());
    for (std::size_t c = 0; c < s.cellSite.size(); ++c)
        s.cellSite[c] = static_cast<std::uint32_t>(s.btree.siteOfNode(
            s.kernel->nodeOfCell(static_cast<CellId>(c))));
    return s;
}

ResiliencePoint
resilienceAtRate(const layout::Layout &l, int rows, int cols,
                 DistributionKind kind, double fault_rate,
                 const ResilienceConfig &rc, const McConfig &cfg,
                 const core::KernelProvider &kernels)
{
    const ResilienceScenario scenario = compileResilienceScenario(
        l, rows, cols, kind, fault_rate, rc, kernels);
    return sweepScenario(scenario, fault_rate, cfg, nullptr);
}

std::vector<ResiliencePoint>
degradationCurve(const layout::Layout &l, int rows, int cols,
                 DistributionKind kind, const std::vector<double> &rates,
                 const ResilienceConfig &rc, const McConfig &cfg)
{
    std::vector<ResiliencePoint> curve;
    if (rates.empty())
        return curve;
    cfg.validate();
    // Only the rates differ between points: one compile, one pool.
    ResilienceScenario scenario = compileResilienceScenario(
        l, rows, cols, kind, rates.front(), rc, core::directCompile());
    ThreadPool pool(cfg.threads);
    curve.reserve(rates.size());
    for (const double rate : rates) {
        scenario.rates = fault::FaultRates::mixed(rate);
        curve.push_back(sweepScenario(scenario, rate, cfg, &pool));
    }
    return curve;
}

McResult
hybridSurvivalSweep(const hybrid::HybridNetwork &net, double fault_rate,
                    int rounds, const McConfig &cfg)
{
    const auto edges = net.partition().elementGraph.undirectedEdges();
    const int elements = net.partition().elementCount;
    VSYNC_ASSERT(elements > 0, "empty partition");
    fault::FaultUniverse universe;
    universe.handshakeWires = 2 * edges.size(); // req + ack per pair
    fault::FaultRates rates;
    rates.severedHandshakeWire = fault_rate;

    // A trial draws only from streams derived from its Rng::forTrial
    // stream, never from that stream itself, so each chunk counts the
    // plan's substream draws plus the jitter stream's.
    McResult r;
    r.samples.assign(cfg.trials, 0.0);
    runChunks(cfg, [&](std::size_t begin, std::size_t end) {
        std::uint64_t draws = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const Rng rng = Rng::forTrial(cfg.seed, i);
            Rng plan_rng = rng.deriveStream(planSalt);
            Rng jitter_rng = rng.deriveStream(delaySalt);
            const fault::FaultPlan plan =
                fault::FaultPlan::generate(universe, rates, plan_rng);

            // Map severed wires back to their element pairs; either
            // wire of a pair down means the handshake never completes.
            std::unordered_set<std::uint64_t> cut;
            for (const fault::Fault &f : plan.faults()) {
                const graph::Edge &e = edges[f.site / 2];
                const std::uint64_t lo = std::min(e.src, e.dst);
                const std::uint64_t hi = std::max(e.src, e.dst);
                cut.insert(lo << 32 | hi);
            }
            const hybrid::HybridNetwork::SeveredFn severed =
                [&cut](int a, int b) {
                    const std::uint64_t lo =
                        static_cast<std::uint64_t>(std::min(a, b));
                    const std::uint64_t hi =
                        static_cast<std::uint64_t>(std::max(a, b));
                    return cut.count(lo << 32 | hi) != 0;
                };

            const hybrid::HybridRunResult res =
                net.simulate(rounds, &jitter_rng, severed);
            std::size_t alive = 0;
            for (const Time t : res.lastCompletion)
                alive += t < infinity;
            r.samples[i] = static_cast<double>(alive) /
                           static_cast<double>(elements);
            draws += plan.draws() + jitter_rng.draws();
        }
        return draws;
    });
    reduceInTrialOrder(r);
    return r;
}

} // namespace vsync::mc
