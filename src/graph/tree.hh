/**
 * @file
 * Rooted binary trees and the paper's Lemma 5 edge separator.
 *
 * Lemma 5: for any subset M of at least two nodes of a binary tree there
 * is an edge whose removal leaves two subtrees, each containing no more
 * than two-thirds of the nodes in M. This is the first step of the
 * Section V-B lower-bound proof, applied to the clock tree CLK with M =
 * the array's cells.
 */

#ifndef VSYNC_GRAPH_TREE_HH
#define VSYNC_GRAPH_TREE_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace vsync::graph
{

/**
 * A rooted tree with at most two children per node, stored as a parent
 * array. Node ids are dense 0..size()-1.
 */
class RootedTree
{
  public:
    RootedTree() = default;

    /** Construct with @p n nodes, all unattached (parent = invalidId). */
    explicit RootedTree(std::size_t n);

    /** Add a node; returns its id. */
    NodeId addNode();

    /**
     * Attach @p child under @p parent.
     *
     * @pre child currently has no parent; parent has < 2 children;
     *      no cycle is formed (checked by walking to the root).
     */
    void setParent(NodeId child, NodeId parent);

    /** Number of nodes. */
    std::size_t size() const { return parents.size(); }

    /** Parent of @p v (invalidId for a root). */
    NodeId parent(NodeId v) const { return parents.at(v); }

    /** Children of @p v (0, 1 or 2 entries). */
    const std::vector<NodeId> &children(NodeId v) const
    {
        return kids.at(v);
    }

    /** The unique root. @pre exactly one node has no parent. */
    NodeId root() const;

    /** Depth of @p v (root has depth 0). */
    int depth(NodeId v) const;

    /** True when every node leads up to a single root without cycles. */
    bool valid() const;

    /**
     * Number of marked nodes in each node's subtree.
     *
     * @param marked per-node flags (size == size()).
     * @return per-node subtree counts.
     */
    std::vector<int> subtreeMarkCounts(const std::vector<bool> &marked)
        const;

    /** Nodes in the subtree rooted at @p v (including v). */
    std::vector<NodeId> subtreeNodes(NodeId v) const;

    /**
     * Nearest common ancestor of @p a and @p b: equalise depths, then
     * climb both. Makes no assumption on id order, so it is the
     * reference the faster id-order climbs of clocktree::ClockTree and
     * core::SkewKernel (whose ids are parent-before-child) are tested
     * against.
     */
    NodeId nca(NodeId a, NodeId b) const;

  private:
    std::vector<NodeId> parents;
    std::vector<std::vector<NodeId>> kids;
};

/** Result of the Lemma 5 separator search. */
struct SeparatorEdge
{
    /** Child endpoint of the separator edge (cut edge = parent->child). */
    NodeId child = invalidId;
    /** Marked nodes inside the child's subtree. */
    int insideCount = 0;
    /** Marked nodes outside the child's subtree. */
    int outsideCount = 0;
};

/**
 * Find an edge of @p tree satisfying Lemma 5 for the marked subset:
 * both sides contain at most ceil(2/3 * M) marked nodes.
 *
 * @pre at least two nodes are marked.
 */
SeparatorEdge findSeparatorEdge(const RootedTree &tree,
                                const std::vector<bool> &marked);

} // namespace vsync::graph

#endif // VSYNC_GRAPH_TREE_HH
