/**
 * @file
 * Skew analysis of a (layout, clock tree) pair under a skew model.
 *
 * For every pair of communicating cells the analysis computes the
 * geometric quantities d and s on CLK and evaluates the model's bounds;
 * the maximum upper bound over all pairs is the sigma that enters the
 * clock period (A5). A Monte-Carlo companion draws concrete per-wire
 * delays in [m - eps, m + eps] and measures realised skews, which tests
 * use to confirm the model's sandwich eps*s <= sigma <= (m+eps)*s.
 *
 * All pair evaluation is backed by core::SkewKernel (one flat compile
 * of the scenario; each pair's NCA climbs only the tree path between
 * its two nodes); the raw-pair surface that
 * predated the kernel (commNodePairs / free sampleMaxCommSkew) shipped
 * as deprecated shims for one release and is now gone.
 * sampleSkewInstance is retained as the naive per-chip reference path:
 * it re-resolves the scenario on every call, which is exactly what the
 * kernel amortises, and bench_perf_skew measures the two against each
 * other in-run.
 */

#ifndef VSYNC_CORE_SKEW_ANALYSIS_HH
#define VSYNC_CORE_SKEW_ANALYSIS_HH

#include <utility>
#include <vector>

#include "clocktree/clock_tree.hh"
#include "core/skew_kernel.hh"
#include "core/skew_model.hh"
#include "layout/layout.hh"

namespace vsync
{
class Rng;
} // namespace vsync

namespace vsync::core
{

/** Skew bounds for one communicating cell pair. */
struct EdgeSkew
{
    CellId a = invalidId;
    CellId b = invalidId;
    /** |h(a) - h(b)| on CLK. */
    Length d = 0.0;
    /** Tree path length between a and b on CLK. */
    Length s = 0.0;
    /** Model upper bound on skew for this pair. */
    double upper = 0.0;
    /** Model lower bound on worst-case skew for this pair. */
    double lower = 0.0;
};

/** Result of analysing all communicating pairs. */
struct SkewReport
{
    std::vector<EdgeSkew> edges;
    /** sigma: max upper bound over communicating pairs (enters A5). */
    double maxSkewUpper = 0.0;
    /** Max lower bound over pairs (certifies Omega growth). */
    double maxSkewLower = 0.0;
    /** Largest d over pairs. */
    Length maxD = 0.0;
    /** Largest s over pairs. */
    Length maxS = 0.0;
    /** Index into edges of the pair attaining maxSkewUpper. */
    std::size_t worstIndex = 0;
};

/**
 * Evaluate @p model over every communicating pair of a compiled
 * scenario @p kernel (which must be tree-compiled). Reuse the kernel
 * across calls to amortise the geometry compile.
 */
[[nodiscard]] SkewReport analyzeSkew(const SkewKernel &kernel,
                                     const SkewModel &model);

/**
 * Evaluate @p model over every communicating pair of @p l under clock
 * tree @p t. Compiles a SkewKernel for the call; callers evaluating
 * several models over one scenario should compile once and use the
 * kernel overload.
 *
 * @pre every cell of the layout is bound to a node of the tree (A4).
 */
[[nodiscard]] SkewReport analyzeSkew(const layout::Layout &l,
                                     const clocktree::ClockTree &t,
                                     const SkewModel &model);

/** A sampled concrete realisation of per-wire delays. */
struct SkewInstance
{
    /** Clock arrival time per tree node. */
    std::vector<Time> arrival;
    /** Realised |arrival(a) - arrival(b)| per communicating pair,
     *  in the same order as SkewReport::edges. */
    std::vector<Time> edgeSkew;
    /** Maximum realised skew between communicating cells. */
    Time maxCommSkew = 0.0;
};

/**
 * Draw one concrete chip: each tree wire gets a per-unit delay sampled
 * uniformly from [delay.lo(), delay.hi()] (the Section III
 * derivation), and arrival times accumulate down the tree.
 *
 * This is the retained naive path: every call re-resolves the comm
 * pairs and allocates its result. Sweeps should compile a SkewKernel
 * once and call SkewKernel::sampleMaxCommSkew per trial, which draws
 * the same delays in the same order (bit-identical results given the
 * same rng state).
 */
SkewInstance sampleSkewInstance(const layout::Layout &l,
                                const clocktree::ClockTree &t,
                                const WireDelay &delay, Rng &rng);

/**
 * Evaluate the realised skew of @p cell_arrival (indexed by cell id,
 * infinity = never clocked) over @p l's communicating pairs. This is
 * the skew-query surface the fault subsystem shares between trees and
 * TRIX grids: both reduce to a per-cell arrival vector first, so they
 * compare under identical fault plans. Compiles a pairs-only
 * SkewKernel per call; repeated evaluation (the resilience sweeps)
 * should compile once and call SkewKernel::arrivalSkew.
 */
[[nodiscard]] ArrivalSkew
skewFromArrivals(const layout::Layout &l,
                 const std::vector<Time> &cell_arrival);

/**
 * The worst-case chip permitted by the Section III wire-delay model:
 * per-wire unit delays are chosen adversarially (m + eps on one side
 * of the critical pair's tree path, m - eps on the other, m elsewhere)
 * so the communicating pair with the largest tree distance realises
 * its full skew m*d + eps*s. This is the instance whose existence
 * A11's lower bound asserts.
 */
SkewInstance adversarialSkewInstance(const layout::Layout &l,
                                     const clocktree::ClockTree &t,
                                     const WireDelay &delay);

} // namespace vsync::core

#endif // VSYNC_CORE_SKEW_ANALYSIS_HH
