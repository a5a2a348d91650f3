/**
 * @file
 * FIG1 -- the difference model (Fig 1, assumption A9).
 *
 * Two cells hang from a common ancestor by branches of lengths h1 and
 * h2; the skew between them is bounded by f(d) with d = h1 - h2. We
 * sweep d at fixed h2, draw many chips whose wire delays vary within
 * +/- eps ~ 0 (the difference model's regime: tuned, repeatable wires)
 * and report the model bound next to the realised skew.
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

/** Two cells on branches of length h1/h2 below a common root. */
struct BranchPair
{
    layout::Layout layout;
    clocktree::ClockTree tree;

    BranchPair(Length h1, Length h2)
    {
        graph::Graph g(2);
        g.addBidirectional(0, 1);
        layout = layout::Layout("branch-pair", g);
        layout.place(0, {-h1, 0.0});
        layout.place(1, {h2, 0.0});

        const NodeId root = tree.addRoot({0.0, 0.0});
        tree.bindCell(tree.addChild(root, {-h1, 0.0}), 0);
        tree.bindCell(tree.addChild(root, {h2, 0.0}), 1);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace vsync;
    const auto opts = BenchOptions::parse(argc, argv);
    const std::uint64_t seed = opts.seedSet ? opts.seed : 0xf161;

    const double m = 0.5;    // ns per lambda
    const double eps = 0.005; // tiny variation: difference regime
    const core::SkewModel model = core::SkewModel::difference(m + eps);

    bench::headline(
        "FIG1: difference model -- skew vs path-length difference d "
        "(h2 = 8 lambda, 1000 chips per row, m = 0.5 ns/lambda, "
        "eps = 0.005)");

    Table table("FIG1 difference model",
                {"d (lambda)", "bound f(d) (ns)", "max skew (ns)",
                 "mean skew (ns)"});

    std::vector<double> ds, skews;
    Rng rng(seed);
    const Length h2 = 8.0;
    for (Length d : {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
        BranchPair bp(h2 + d, h2);
        RunningStat stat;
        for (int chip = 0; chip < 1000; ++chip) {
            const auto inst =
                core::sampleSkewInstance(bp.layout, bp.tree,
                                         core::WireDelay{m, eps}, rng);
            stat.add(inst.maxCommSkew);
        }
        const auto report = core::analyzeSkew(bp.layout, bp.tree, model);
        table.addRow({Table::num(d), Table::num(report.maxSkewUpper),
                      Table::num(stat.max()), Table::num(stat.mean())});
        if (d > 0.0) {
            ds.push_back(d);
            skews.push_back(stat.max());
        }
    }
    emitTable(table, opts);
    bench::printGrowth("skew vs d", ds, skews);
    std::printf("expected: skew tracks f(d) = m*d linearly; equal-length "
                "branches (d = 0) have near-zero skew.\n");
    return 0;
}
