#include "device/noise_map.h"

#include <cmath>
#include <stdexcept>

#include "core/profile.h"

namespace tqan {
namespace device {

NoiseMap::NoiseMap(const Topology &topo,
                   std::vector<double> edge_errors,
                   std::vector<double> readout_errors)
    : topo_(&topo), edge_(std::move(edge_errors)),
      readout_(std::move(readout_errors))
{
    if (edge_.size() != topo.edges().size())
        throw std::invalid_argument("NoiseMap: edge count mismatch");
    if (static_cast<int>(readout_.size()) != topo.numQubits())
        throw std::invalid_argument("NoiseMap: qubit count mismatch");
    for (double e : edge_)
        if (e < 0.0 || e >= 1.0)
            throw std::invalid_argument("NoiseMap: bad edge error");
}

double
NoiseMap::edgeError(int p, int q) const
{
    const auto &edges = topo_->edges();
    for (size_t i = 0; i < edges.size(); ++i) {
        if ((edges[i].first == p && edges[i].second == q) ||
            (edges[i].first == q && edges[i].second == p))
            return edge_[i];
    }
    throw std::invalid_argument("NoiseMap::edgeError: not coupled");
}

linalg::FlatMatrix
NoiseMap::noiseAwareDistances(double lambda) const
{
    core::profile::ScopedTimer prof("device.noise_distances");
    int n = topo_->numQubits();
    // Mean per-edge log-infidelity for normalization.
    double mean_li = 0.0;
    for (double e : edge_)
        mean_li += -std::log(1.0 - e);
    mean_li /= static_cast<double>(edge_.size());
    if (mean_li <= 0.0)
        mean_li = 1.0;

    const double inf = 1e18;
    linalg::FlatMatrix d(n, n, inf);
    for (int i = 0; i < n; ++i)
        d[i][i] = 0.0;
    const auto &edges = topo_->edges();
    for (size_t i = 0; i < edges.size(); ++i) {
        double w = 1.0 + lambda * (-std::log(1.0 - edge_[i])) /
                             mean_li;
        auto [u, v] = edges[i];
        d[u][v] = d[v][u] = std::min(d[u][v], w);
    }
    for (int k = 0; k < n; ++k) {
        const double *dk = d[k];
        for (int i = 0; i < n; ++i) {
            double *di = d[i];
            double dik = di[k];
            for (int j = 0; j < n; ++j)
                di[j] = std::min(di[j], dik + dk[j]);
        }
    }
    return d;
}

NoiseMap
NoiseMap::synthetic(const Topology &topo, std::mt19937_64 &rng,
                    double mean2q, double sigma, double meanRo)
{
    // Lognormal with the requested mean: exp(N(mu, sigma)) has mean
    // exp(mu + sigma^2/2).
    double mu2 = std::log(mean2q) - 0.5 * sigma * sigma;
    double mur = std::log(meanRo) - 0.5 * sigma * sigma;
    std::normal_distribution<double> n2(mu2, sigma);
    std::normal_distribution<double> nr(mur, sigma);

    std::vector<double> edges(topo.edges().size());
    for (auto &e : edges)
        e = std::min(0.5, std::exp(n2(rng)));
    std::vector<double> ro(topo.numQubits());
    for (auto &r : ro)
        r = std::min(0.5, std::exp(nr(rng)));
    return NoiseMap(topo, std::move(edges), std::move(ro));
}

std::shared_ptr<const NoiseMap>
syntheticCalibration(const Topology &topo, std::uint64_t compileSeed)
{
    std::mt19937_64 rng(compileSeed ^ 0xCA11B8A7Eull);
    return std::make_shared<const NoiseMap>(
        NoiseMap::synthetic(topo, rng));
}

} // namespace device
} // namespace tqan
