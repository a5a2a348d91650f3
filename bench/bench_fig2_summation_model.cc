/**
 * @file
 * FIG2 -- the summation model (Fig 2, assumptions A10/A11).
 *
 * Two cells hang from a common ancestor by equal-length branches
 * (d = 0), so the difference model would predict zero skew; with
 * per-wire variation eps the skew instead scales with the total
 * connecting path length s. Each row sweeps s and reports the A11
 * lower bound, the realised spread over many chips, and the A10 upper
 * bound -- the sandwich eps*s <= sigma <= (m+eps)*s.
 */

#include <cstdio>

#include "bench_util.hh"
#include "clocktree/clock_tree.hh"
#include "common/rng.hh"
#include "core/skew_analysis.hh"
#include "core/skew_model.hh"
#include "graph/graph.hh"
#include "layout/layout.hh"

namespace
{

using namespace vsync;

/** Equal branches of length s/2 each, split into unit wires so the
 *  per-wire variation accumulates along the path (the Section III
 *  random-walk picture). */
struct EqualBranches
{
    layout::Layout layout;
    clocktree::ClockTree tree;

    explicit EqualBranches(int half)
    {
        graph::Graph g(2);
        g.addBidirectional(0, 1);
        layout = layout::Layout("equal-branches", g);
        layout.place(0, {static_cast<Length>(-half), 0.0});
        layout.place(1, {static_cast<Length>(half), 0.0});

        NodeId left = tree.addRoot({0.0, 0.0});
        NodeId right = left;
        for (int i = 1; i <= half; ++i) {
            left = tree.addChild(left,
                                 {static_cast<Length>(-i), 0.0});
            right = tree.addChild(right,
                                  {static_cast<Length>(i), 0.0});
        }
        tree.bindCell(left, 0);
        tree.bindCell(right, 1);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace vsync;
    const auto opts = BenchOptions::parse(argc, argv);
    const std::uint64_t seed = opts.seedSet ? opts.seed : 0xf162;

    const double m = 0.5;
    const double eps = 0.05;
    const core::SkewModel model = core::SkewModel::summation(m, eps);

    bench::headline(
        "FIG2: summation model -- skew vs connecting path length s "
        "(equal branches, d = 0; 2000 chips per row; m = 0.5, "
        "eps = 0.05 ns/lambda)");

    Table table("FIG2 summation model",
                {"s (lambda)", "lower beta*s (ns)", "p99 skew (ns)",
                 "max skew (ns)", "adversarial (ns)",
                 "upper g(s) (ns)"});

    std::vector<double> ss, worst;
    Rng rng(seed);
    for (int half : {1, 2, 4, 8, 16, 32, 64}) {
        EqualBranches eb(half);
        const double s = 2.0 * half;
        SampleSet skews;
        for (int chip = 0; chip < 2000; ++chip) {
            const auto inst =
                core::sampleSkewInstance(eb.layout, eb.tree,
                                         core::WireDelay{m, eps}, rng);
            skews.add(inst.maxCommSkew);
        }
        const auto adv =
            core::adversarialSkewInstance(eb.layout, eb.tree,
                                          core::WireDelay{m, eps});
        const auto report = core::analyzeSkew(eb.layout, eb.tree, model);
        table.addRow({Table::num(s),
                      Table::num(report.edges[0].lower),
                      Table::num(skews.quantile(0.99)),
                      Table::num(skews.stat().max()),
                      Table::num(adv.maxCommSkew),
                      Table::num(report.maxSkewUpper)});
        ss.push_back(s);
        worst.push_back(adv.maxCommSkew);
    }
    emitTable(table, opts);
    bench::printGrowth("worst-case skew vs s", ss, worst);
    std::printf("expected: even with d = 0 the worst-case skew grows "
                "linearly in s, sandwiched between eps*s and "
                "(m+eps)*s; random chips sit between the bounds.\n");
    return 0;
}
