/**
 * @file
 * Minimal undirected-graph toolkit.
 *
 * Used in two roles:
 *  - the interaction graph of a 2-local Hamiltonian (paper Eq. 3),
 *  - the coupling graph of a quantum device, whose all-pairs hop
 *    distances feed the QAP cost function (paper Eq. 7).
 */

#ifndef TQAN_GRAPH_GRAPH_H
#define TQAN_GRAPH_GRAPH_H

#include <cstdint>
#include <utility>
#include <vector>

namespace tqan {
namespace graph {

using Edge = std::pair<int, int>;

/** Simple undirected graph with adjacency lists. */
class Graph
{
  public:
    Graph() : n_(0) {}
    explicit Graph(int n) : n_(n), adj_(n) {}
    Graph(int n, const std::vector<Edge> &edges);

    int numNodes() const { return n_; }
    int numEdges() const { return static_cast<int>(edges_.size()); }
    const std::vector<Edge> &edges() const { return edges_; }
    const std::vector<int> &neighbors(int v) const { return adj_[v]; }
    int degree(int v) const { return static_cast<int>(adj_[v].size()); }

    /** Add an undirected edge; duplicate and self edges are rejected. */
    void addEdge(int u, int v);
    bool hasEdge(int u, int v) const;

    /** BFS hop distances from src; unreachable nodes get -1. */
    std::vector<int> bfsDistances(int src) const;
    bool isConnected() const;

  private:
    int n_;
    std::vector<std::vector<int>> adj_;
    std::vector<Edge> edges_;
};

} // namespace graph
} // namespace tqan

#endif // TQAN_GRAPH_GRAPH_H
