#include "device/topology.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/profile.h"

namespace tqan {
namespace device {

std::string
gateSetName(GateSet g)
{
    switch (g) {
      case GateSet::Cnot: return "CNOT";
      case GateSet::Cz: return "CZ";
      case GateSet::ISwap: return "iSWAP";
      case GateSet::Syc: return "SYC";
    }
    return "?";
}

Topology::Topology(std::string name, graph::Graph coupling)
    : name_(std::move(name)), coupling_(std::move(coupling)),
      hops_(std::make_shared<HopCache>())
{
    if (!coupling_.isConnected())
        throw std::invalid_argument(
            "Topology: coupling graph must be connected");
}

const linalg::FlatMatrix &
Topology::buildHopDistances() const
{
    HopCache &c = *hops_;
    std::call_once(c.once, [this, &c]() {
        core::profile::ScopedTimer prof("device.hop_distances");
        int n = numQubits();
        linalg::FlatMatrix d(n, n, -1.0);
        std::vector<int> queue(n);
        for (int s = 0; s < n; ++s) {
            double *row = d[s];
            row[s] = 0.0;
            int head = 0, tail = 0;
            queue[tail++] = s;
            while (head < tail) {
                int v = queue[head++];
                for (int w : coupling_.neighbors(v))
                    if (row[w] < 0.0) {
                        row[w] = row[v] + 1.0;
                        queue[tail++] = w;
                    }
            }
            // BFS dequeues in distance order: the last vertex is the
            // farthest from s.
            c.diameter = std::max(c.diameter,
                                  static_cast<int>(row[queue[tail - 1]]));
        }
        c.matrix = std::move(d);
        c.ready.store(&c.matrix, std::memory_order_release);
    });
    return c.matrix;
}

} // namespace device
} // namespace tqan
