/**
 * @file
 * Tests for the directed communication graph.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "graph/graph.hh"

namespace
{

using vsync::graph::Edge;
using vsync::graph::Graph;

TEST(Graph, AddNodesAndEdges)
{
    Graph g(3);
    EXPECT_EQ(g.size(), 3u);
    const auto e0 = g.addEdge(0, 1);
    const auto e1 = g.addEdge(1, 2);
    EXPECT_EQ(g.edgeCount(), 2u);
    EXPECT_EQ(g.edge(e0).src, 0);
    EXPECT_EQ(g.edge(e1).dst, 2);
    EXPECT_EQ(g.addNode(), 3);
    EXPECT_EQ(g.size(), 4u);
    EXPECT_EQ(g.addNodes(2), 4);
    EXPECT_EQ(g.size(), 6u);
}

TEST(Graph, AdjacencyLists)
{
    Graph g(3);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(2, 0);
    EXPECT_EQ(g.outEdges(0).size(), 2u);
    EXPECT_EQ(g.inEdges(0).size(), 1u);
    EXPECT_EQ(g.outEdges(1).size(), 0u);
    EXPECT_EQ(g.inEdges(1).size(), 1u);
}

TEST(Graph, NeighborsDeduplicates)
{
    Graph g(3);
    g.addBidirectional(0, 1);
    g.addEdge(0, 2);
    const auto n = g.neighbors(0);
    EXPECT_EQ(n, (std::vector<vsync::CellId>{1, 2}));
}

TEST(Graph, ConnectedChecksBothDirections)
{
    Graph g(3);
    g.addEdge(0, 1);
    EXPECT_TRUE(g.connected(0, 1));
    EXPECT_TRUE(g.connected(1, 0));
    EXPECT_FALSE(g.connected(0, 2));
}

TEST(Graph, UndirectedEdgesCollapsePairs)
{
    Graph g(3);
    g.addBidirectional(0, 1);
    g.addEdge(1, 2);
    const auto ue = g.undirectedEdges();
    ASSERT_EQ(ue.size(), 2u);
    EXPECT_EQ(ue[0].src, 0);
    EXPECT_EQ(ue[0].dst, 1);
    EXPECT_EQ(ue[1].src, 1);
    EXPECT_EQ(ue[1].dst, 2);
}

TEST(Graph, UndirectedEdgesMatchSortedDedupReference)
{
    // The reference: every directed edge as a (min, max) pair, sorted
    // and deduplicated. Random graphs with repeated edges, both
    // directions of a pair, isolated nodes, and the empty graph.
    const auto reference = [](const Graph &g) {
        std::vector<Edge> pairs;
        for (const Edge &e : g.allEdges())
            pairs.push_back({std::min(e.src, e.dst), std::max(e.src, e.dst)});
        std::sort(pairs.begin(), pairs.end(),
                  [](const Edge &a, const Edge &b) {
                      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                  });
        pairs.erase(std::unique(pairs.begin(), pairs.end(),
                                [](const Edge &a, const Edge &b) {
                                    return a.src == b.src && a.dst == b.dst;
                                }),
                    pairs.end());
        return pairs;
    };
    vsync::Rng rng(0x6ed9e);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = round < 2 ? round : 2 + rng.uniformInt(40);
        Graph g(n);
        // Edges among the first half of the nodes only, so the rest
        // stay isolated; few candidates, so pairs repeat.
        const std::size_t used = std::max<std::size_t>(n / 2, 2);
        const std::size_t edges = n < 2 ? 0 : rng.uniformInt(4 * n);
        for (std::size_t k = 0; k < edges; ++k) {
            const auto a = static_cast<vsync::CellId>(rng.uniformInt(used));
            const auto b = static_cast<vsync::CellId>(rng.uniformInt(used));
            if (a == b)
                continue;
            if (rng.bernoulli(0.3))
                g.addBidirectional(a, b);
            else
                g.addEdge(a, b);
        }
        const std::vector<Edge> got = g.undirectedEdges();
        const std::vector<Edge> want = reference(g);
        ASSERT_EQ(got.size(), want.size()) << "round " << round;
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_TRUE(got[i].src == want[i].src &&
                        got[i].dst == want[i].dst)
                << "round " << round << " pair " << i << ": (" << got[i].src
                << ", " << got[i].dst << ") vs (" << want[i].src << ", "
                << want[i].dst << ")";
    }
    EXPECT_TRUE(Graph().undirectedEdges().empty());
}

TEST(Graph, ComponentsAndConnectivity)
{
    Graph g(5);
    g.addBidirectional(0, 1);
    g.addBidirectional(2, 3);
    EXPECT_EQ(g.componentCount(), 3u);
    EXPECT_FALSE(g.isConnected());
    g.addEdge(1, 2);
    g.addEdge(3, 4);
    EXPECT_TRUE(g.isConnected());
}

TEST(Graph, BfsDistances)
{
    Graph g(5);
    g.addBidirectional(0, 1);
    g.addBidirectional(1, 2);
    g.addBidirectional(2, 3);
    const auto d = g.bfsDistances(0);
    EXPECT_EQ(d[0], 0);
    EXPECT_EQ(d[1], 1);
    EXPECT_EQ(d[3], 3);
    EXPECT_EQ(d[4], -1); // unreachable
}

TEST(Graph, EmptyGraphIsNotConnected)
{
    Graph g;
    EXPECT_FALSE(g.isConnected());
}

} // namespace
