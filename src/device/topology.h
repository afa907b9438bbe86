/**
 * @file
 * Device coupling topology and native gate set descriptors.
 */

#ifndef TQAN_DEVICE_TOPOLOGY_H
#define TQAN_DEVICE_TOPOLOGY_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "linalg/flat_matrix.h"

namespace tqan {
namespace device {

/** Native two-qubit gate of a device (paper Fig. 1). */
enum class GateSet {
    Cnot,   ///< IBM (Montreal, Manhattan)
    Cz,     ///< Sycamore / Aspen alternative native gate (appendix)
    ISwap,  ///< Rigetti Aspen
    Syc,    ///< Google Sycamore fSim(pi/2, pi/6)
};

std::string gateSetName(GateSet g);

/**
 * A quantum device: qubit count, coupling graph, and the all-pairs
 * hop distances (the QAP distance matrix of Eq. 7).
 *
 * The hop matrix is the one copy every mapper, router and cost
 * function reads.  It is built lazily, on the first hopDistances()
 * or dist() call, by one BFS per qubit (O(N*E)), so building a
 * topology only to key a cache or check a coupling costs nothing
 * beyond the graph.  Copies share the matrix, including copies made
 * before its first use, and concurrent first use from several
 * threads builds it exactly once.
 */
class Topology
{
  public:
    Topology(std::string name, graph::Graph coupling);

    const std::string &name() const { return name_; }
    int numQubits() const { return coupling_.numNodes(); }
    const graph::Graph &coupling() const { return coupling_; }
    const std::vector<graph::Edge> &edges() const
    {
        return coupling_.edges();
    }
    const std::vector<int> &neighbors(int q) const
    {
        return coupling_.neighbors(q);
    }

    bool connected(int p, int q) const
    {
        return coupling_.hasEdge(p, q);
    }
    /** Hop distance between hardware qubits. */
    int dist(int p, int q) const
    {
        return static_cast<int>(hopDistances()[p][q]);
    }
    /** All-pairs hop distances, row-major and widened to double. */
    const linalg::FlatMatrix &hopDistances() const
    {
        if (const linalg::FlatMatrix *m =
                hops_->ready.load(std::memory_order_acquire))
            return *m;
        return buildHopDistances();
    }

    /** Largest hop distance (the coupling graph's diameter), found
     * by the BFS that builds hopDistances().  With it the matrix's
     * distance-side facts are known without a scan: every entry is a
     * non-negative integer, the matrix is symmetric (the coupling
     * graph is undirected and connected) and its diagonal is zero. */
    int hopDiameter() const
    {
        hopDistances();
        return hops_->diameter;
    }

  private:
    /** The lazily built hop matrix, one per family of copies. */
    struct HopCache
    {
        std::once_flag once;
        std::atomic<const linalg::FlatMatrix *> ready{nullptr};
        linalg::FlatMatrix matrix;
        int diameter = 0;  ///< written before `ready` is published
    };

    const linalg::FlatMatrix &buildHopDistances() const;

    std::string name_;
    graph::Graph coupling_;
    std::shared_ptr<HopCache> hops_;
};

} // namespace device
} // namespace tqan

#endif // TQAN_DEVICE_TOPOLOGY_H
