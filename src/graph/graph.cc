#include "graph/graph.hh"

#include <algorithm>
#include <deque>

#include "common/logging.hh"

namespace vsync::graph
{

Graph::Graph(std::size_t n) : out(n), in(n)
{
}

CellId
Graph::addNode()
{
    out.emplace_back();
    in.emplace_back();
    return static_cast<CellId>(out.size() - 1);
}

CellId
Graph::addNodes(std::size_t count)
{
    const CellId first = static_cast<CellId>(out.size());
    out.resize(out.size() + count);
    in.resize(in.size() + count);
    return first;
}

EdgeId
Graph::addEdge(CellId src, CellId dst)
{
    VSYNC_ASSERT(src >= 0 && static_cast<std::size_t>(src) < out.size(),
                 "bad edge source %d", src);
    VSYNC_ASSERT(dst >= 0 && static_cast<std::size_t>(dst) < out.size(),
                 "bad edge target %d", dst);
    VSYNC_ASSERT(src != dst, "self loop on node %d", src);
    const EdgeId id = static_cast<EdgeId>(edges.size());
    edges.push_back({src, dst});
    out[src].push_back({dst, id});
    in[dst].push_back({src, id});
    return id;
}

void
Graph::addBidirectional(CellId a, CellId b)
{
    addEdge(a, b);
    addEdge(b, a);
}

std::vector<CellId>
Graph::neighbors(CellId v) const
{
    std::vector<CellId> result;
    for (const Adj &a : out.at(v))
        result.push_back(a.node);
    for (const Adj &a : in.at(v))
        result.push_back(a.node);
    std::sort(result.begin(), result.end());
    result.erase(std::unique(result.begin(), result.end()), result.end());
    return result;
}

bool
Graph::connected(CellId a, CellId b) const
{
    for (const Adj &adj : out.at(a))
        if (adj.node == b)
            return true;
    for (const Adj &adj : in.at(a))
        if (adj.node == b)
            return true;
    return false;
}

std::vector<Edge>
Graph::undirectedEdges() const
{
    // Counting sort on the min endpoint; then each bucket's max
    // endpoints are sorted and deduplicated in place. That gives the
    // bytes of sorting every (min, max) pair, without a comparison
    // sort over all the edges.
    const std::size_t n = size();
    std::vector<std::size_t> end(n + 1, 0);
    for (const Edge &e : edges)
        ++end[static_cast<std::size_t>(std::min(e.src, e.dst)) + 1];
    for (std::size_t v = 0; v < n; ++v)
        end[v + 1] += end[v];
    // Placing through end[v] moves it from bucket v's start to its end.
    std::vector<CellId> hi(edges.size());
    for (const Edge &e : edges)
        hi[end[static_cast<std::size_t>(std::min(e.src, e.dst))]++] =
            std::max(e.src, e.dst);
    std::size_t kept = 0;
    std::size_t begin = 0;
    for (std::size_t v = 0; v < n; ++v) {
        std::sort(hi.begin() + begin, hi.begin() + end[v]);
        for (std::size_t k = begin; k < end[v]; ++k)
            if (k == begin || hi[k] != hi[k - 1])
                hi[kept++] = hi[k];
        begin = end[v];
        end[v] = kept;
    }
    std::vector<Edge> pairs;
    pairs.reserve(kept);
    begin = 0;
    for (std::size_t v = 0; v < n; ++v) {
        for (std::size_t k = begin; k < end[v]; ++k)
            pairs.push_back({static_cast<CellId>(v), hi[k]});
        begin = end[v];
    }
    return pairs;
}

std::size_t
Graph::componentCount() const
{
    std::vector<bool> seen(size(), false);
    std::size_t components = 0;
    for (CellId start = 0; static_cast<std::size_t>(start) < size();
         ++start) {
        if (seen[start])
            continue;
        ++components;
        std::deque<CellId> queue{start};
        seen[start] = true;
        while (!queue.empty()) {
            const CellId v = queue.front();
            queue.pop_front();
            for (CellId w : neighbors(v)) {
                if (!seen[w]) {
                    seen[w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    return components;
}

bool
Graph::isConnected() const
{
    return size() > 0 && componentCount() == 1;
}

std::vector<int>
Graph::bfsDistances(CellId src) const
{
    VSYNC_ASSERT(src >= 0 && static_cast<std::size_t>(src) < size(),
                 "bfs from bad node %d", src);
    std::vector<int> dist(size(), -1);
    std::deque<CellId> queue{src};
    dist[src] = 0;
    while (!queue.empty()) {
        const CellId v = queue.front();
        queue.pop_front();
        for (CellId w : neighbors(v)) {
            if (dist[w] < 0) {
                dist[w] = dist[v] + 1;
                queue.push_back(w);
            }
        }
    }
    return dist;
}

} // namespace vsync::graph
