#include "graph/coloring.h"

#include <algorithm>
#include <numeric>

namespace tqan {
namespace graph {

std::vector<int>
greedyColoring(const Graph &g)
{
    int n = g.numNodes();
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&g](int a, int b) {
        return g.degree(a) > g.degree(b);
    });

    std::vector<int> color(n, -1);
    std::vector<char> used;
    for (int v : order) {
        // v's color is at most its degree, so only colors up to it
        // matter.
        used.assign(g.degree(v) + 1, 0);
        for (int w : g.neighbors(v))
            if (color[w] >= 0 && color[w] <= g.degree(v))
                used[color[w]] = 1;
        int c = 0;
        while (used[c])
            ++c;
        color[v] = c;
    }
    return color;
}

int
numColors(const std::vector<int> &coloring)
{
    int m = -1;
    for (int c : coloring)
        m = std::max(m, c);
    return m + 1;
}

bool
coloringIsValid(const Graph &g, const std::vector<int> &coloring)
{
    for (const auto &[u, v] : g.edges())
        if (coloring[u] == coloring[v])
            return false;
    return true;
}

} // namespace graph
} // namespace tqan
