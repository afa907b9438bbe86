/**
 * @file
 * Per-device calibration data (noise map).
 *
 * The paper's future-work list (Sec. VII) names noise-aware
 * compilation as the natural next step for 2QAN: NISQ devices have
 * inhomogeneous error rates, and a placement that avoids the bad
 * couplers buys fidelity.  This header provides the calibration
 * container plus a synthetic-calibration generator (real calibration
 * files are proprietary; the synthetic one reproduces the typical
 * lognormal spread of reported CNOT error rates).
 */

#ifndef TQAN_DEVICE_NOISE_MAP_H
#define TQAN_DEVICE_NOISE_MAP_H

#include <cstdint>
#include <memory>
#include <random>

#include "device/topology.h"
#include "linalg/flat_matrix.h"

namespace tqan {
namespace device {

/** Calibration data attached to a Topology. */
class NoiseMap
{
  public:
    NoiseMap(const Topology &topo, std::vector<double> edge_errors,
             std::vector<double> readout_errors);

    /** Two-qubit error rate of the coupler (p, q); throws if the
     * pair is not coupled. */
    double edgeError(int p, int q) const;
    double readoutError(int q) const { return readout_[q]; }
    const std::vector<double> &edgeErrors() const { return edge_; }

    /**
     * Noise-aware distance matrix: the (p, q) entry is the minimum
     * over paths of sum_{edges} (1 + lambda * (-log(1 - err_e)) /
     * (-log(1 - err_mean))), i.e. hop count inflated by how much
     * worse than average each traversed coupler is.  Reduces to the
     * plain hop distance at lambda = 0.
     */
    linalg::FlatMatrix noiseAwareDistances(double lambda) const;

    /**
     * Synthetic calibration: lognormal edge errors with the given
     * mean and spread (sigma of the underlying normal), plus readout
     * errors; seeded for reproducibility.
     */
    static NoiseMap synthetic(const Topology &topo,
                              std::mt19937_64 &rng,
                              double mean2q = 0.0124,
                              double sigma = 0.5,
                              double meanRo = 0.0183);

  private:
    const Topology *topo_;
    std::vector<double> edge_;     // parallel to topo.edges()
    std::vector<double> readout_;  // per qubit
};

/**
 * The calibration a noise-aware compile seeded with `compileSeed`
 * places against: NoiseMap::synthetic() drawn from
 * compileSeed ^ 0xCA11B8A7E.  `tqanc --noise-aware` and the compile
 * service's `noise_aware` both take it from here, so a request
 * compiles the same through either.  The map points at `topo`, which
 * must outlive it.
 */
std::shared_ptr<const NoiseMap>
syntheticCalibration(const Topology &topo, std::uint64_t compileSeed);

} // namespace device
} // namespace tqan

#endif // TQAN_DEVICE_NOISE_MAP_H
