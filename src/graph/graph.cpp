#include "graph/graph.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace tqan {
namespace graph {

Graph::Graph(int n, const std::vector<Edge> &edges) : n_(n), adj_(n)
{
    for (const auto &[u, v] : edges)
        addEdge(u, v);
}

void
Graph::addEdge(int u, int v)
{
    if (u < 0 || v < 0 || u >= n_ || v >= n_)
        throw std::out_of_range("Graph::addEdge: node out of range");
    if (u == v)
        throw std::invalid_argument("Graph::addEdge: self loop");
    if (hasEdge(u, v))
        throw std::invalid_argument("Graph::addEdge: duplicate edge");
    adj_[u].push_back(v);
    adj_[v].push_back(u);
    edges_.emplace_back(std::min(u, v), std::max(u, v));
}

bool
Graph::hasEdge(int u, int v) const
{
    if (u < 0 || v < 0 || u >= n_ || v >= n_)
        return false;
    const auto &a = adj_[u].size() <= adj_[v].size() ? adj_[u] : adj_[v];
    int other = adj_[u].size() <= adj_[v].size() ? v : u;
    return std::find(a.begin(), a.end(), other) != a.end();
}

std::vector<int>
Graph::bfsDistances(int src) const
{
    std::vector<int> dist(n_, -1);
    std::deque<int> q;
    dist[src] = 0;
    q.push_back(src);
    while (!q.empty()) {
        int v = q.front();
        q.pop_front();
        for (int w : adj_[v]) {
            if (dist[w] < 0) {
                dist[w] = dist[v] + 1;
                q.push_back(w);
            }
        }
    }
    return dist;
}

bool
Graph::isConnected() const
{
    if (n_ == 0)
        return true;
    auto d = bfsDistances(0);
    return std::all_of(d.begin(), d.end(),
                       [](int x) { return x >= 0; });
}

} // namespace graph
} // namespace tqan
