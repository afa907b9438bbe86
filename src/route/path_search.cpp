#include "route/path_search.h"

#include <algorithm>
#include <functional>
#include <limits>

namespace tqan {
namespace route {

namespace {

const double kInf = std::numeric_limits<double>::infinity();

std::vector<int>
unwind(const std::vector<int> &prev, int s, int t)
{
    std::vector<int> path;
    for (int v = t; v != -1; v = prev[v])
        path.push_back(v);
    std::reverse(path.begin(), path.end());
    if (path.empty() || path.front() != s)
        return {};
    return path;
}

/** Put the vertices a search reached back at rest. */
void
reset(SearchWorkspace &ws)
{
    for (int v : ws.touched) {
        ws.dist[v] = kInf;
        ws.prev[v] = -1;
        ws.done[v] = 0;
    }
    ws.touched.clear();
    ws.heap.clear();
}

/** Dijkstra on a per-vertex entry cost; when `monotonic`, only edges
 * that strictly decrease the hop distance to t are taken.  An
 * infinite entry cost excludes the vertex.  Deterministic: the
 * binary heap (push_heap/pop_heap under std::greater, the
 * std::priority_queue discipline) orders by (cost, vertex id). */
template <typename EnterCost>
std::vector<int>
dijkstra(const device::Topology &topo, int s, int t, bool monotonic,
         EnterCost enter, SearchWorkspace &ws)
{
    using Entry = std::pair<double, int>;
    const std::greater<Entry> after;
    std::vector<double> &d = ws.dist;
    std::vector<int> &prev = ws.prev;
    std::vector<char> &done = ws.done;
    std::vector<Entry> &pq = ws.heap;
    d[s] = 0.0;
    ws.touched.push_back(s);
    pq.push_back({0.0, s});
    while (!pq.empty()) {
        auto [dc, u] = pq.front();
        std::pop_heap(pq.begin(), pq.end(), after);
        pq.pop_back();
        if (done[u])
            continue;
        done[u] = 1;
        if (u == t)
            break;
        for (int v : topo.neighbors(u)) {
            if (done[v])
                continue;
            if (monotonic && topo.dist(v, t) != topo.dist(u, t) - 1)
                continue;
            // The target costs nothing to enter: the chain stops
            // short of it (the net's other endpoint lives there).
            double step = v == t ? 0.0 : enter(v);
            if (step == kInf)
                continue;
            double nd = dc + step;
            if (nd < d[v] || (nd == d[v] && u < prev[v])) {
                if (d[v] == kInf)
                    ws.touched.push_back(v);
                d[v] = nd;
                prev[v] = u;
                pq.push_back({nd, v});
                std::push_heap(pq.begin(), pq.end(), after);
            }
        }
    }
    std::vector<int> path;
    if (d[t] != kInf)
        path = unwind(prev, s, t);
    reset(ws);
    return path;
}

} // namespace

SearchWorkspace::SearchWorkspace(int numVertices)
    : dist(numVertices, kInf), prev(numVertices, -1),
      done(numVertices, 0)
{
}

std::vector<int>
pathDirect(const device::Topology &topo, int s, int t,
           SearchWorkspace &ws)
{
    if (s == t)
        return {s};
    std::vector<int> &prev = ws.prev;
    std::vector<char> &seen = ws.done;
    // Every seen vertex enters the queue once, so the queue is also
    // the reset list.
    std::vector<int> &q = ws.touched;
    seen[s] = 1;
    q.push_back(s);
    for (size_t head = 0; head < q.size(); ++head) {
        int u = q[head];
        if (u == t)
            break;
        for (int v : topo.neighbors(u)) {
            if (seen[v])
                continue;
            seen[v] = 1;
            prev[v] = u;
            q.push_back(v);
        }
    }
    std::vector<int> path;
    if (seen[t])
        path = unwind(prev, s, t);
    reset(ws);
    return path;
}

std::vector<int>
pathMonotonic(const device::Topology &topo, const CostModel &cost,
              int s, int t, SearchWorkspace &ws)
{
    return dijkstra(
        topo, s, t, true, [&](int v) { return cost.enterCost(v); }, ws);
}

std::vector<int>
pathMaze(const device::Topology &topo, const CostModel &cost, int s,
         int t, SearchWorkspace &ws)
{
    return dijkstra(
        topo, s, t, false, [&](int v) { return cost.enterCost(v); }, ws);
}

std::vector<int>
pathConstrained(const device::Topology &topo, int s, int t,
                const std::vector<char> &blocked,
                const std::vector<double> &bias, SearchWorkspace &ws)
{
    if (blocked[s] || blocked[t])
        return {};
    return dijkstra(
        topo, s, t, true,
        [&](int v) { return blocked[v] ? kInf : 1.0 + bias[v]; }, ws);
}

} // namespace route
} // namespace tqan
