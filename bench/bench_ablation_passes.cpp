/**
 * @file
 * Ablation study of the 2QAN design choices (DESIGN.md Sec. 6; the
 * paper motivates each pass in Sec. III):
 *
 *  1. initial placement: Tabu QAP vs. annealing vs. greedy vs. line
 *     vs. identity,
 *  2. SWAP-unitary unifying on/off,
 *  3. hybrid ALAP scheduler vs. generic order-respecting scheduler,
 *  4. circuit-unitary unifying on/off.
 *
 * Run on the Fig. 9 workloads (Montreal, CNOT).
 */

#include <cstdio>
#include <random>
#include <string>

#include "core/compiler.h"
#include "core/metrics.h"
#include "core/sweep.h"
#include "device/devices.h"
#include "ham/models.h"

using namespace tqan;

namespace {

using Family = core::Benchmark;

void
printRow(Family f, const std::string &device,
         const std::string &label, int n,
         const core::CompilationMetrics &m)
{
    core::SweepRow row;
    row.experiment = "ablation";
    row.benchmark = core::benchmarkName(f);
    row.device = device;
    row.gateset = device::gateSetName(device::GateSet::Cnot);
    row.backend = label;
    row.nqubits = n;
    row.instance = 0;
    row.metrics = m;
    std::printf("%s\n", core::toCsv(row).c_str());
    std::fflush(stdout);
}

void
runConfig(const char *label, const core::CompilerOptions &opt,
          Family f, int n)
{
    device::Topology topo = device::montreal27();
    core::SweepUnit unit = core::buildSweepUnit(f, n, 0, 0);
    const qcir::Circuit &step = *unit.step;
    core::TqanCompiler comp(topo, opt);
    auto res = comp.compile(step);
    auto m = core::computeMetrics(res.sched, step,
                                  device::GateSet::Cnot);
    printRow(f, topo.name(), label, n, m);
}

/**
 * The circuit-unifying ablation must start from the *un-unified*
 * Pauli-term circuit (one single-axis exponential per term, e.g.
 * 3 ops per Heisenberg pair); the model builders already fold terms
 * per pair, which is precisely the pass under test.
 */
qcir::Circuit
unUnifiedStep(Family f, int n, std::mt19937_64 &rng)
{
    ham::TwoLocalHamiltonian h =
        f == Family::NnnHeisenberg ? ham::nnnHeisenberg(n, rng)
        : f == Family::NnnXY       ? ham::nnnXY(n, rng)
                                   : ham::nnnIsing(n, rng);
    qcir::Circuit c(n);
    for (const auto &term : h.pauliTerms()) {
        if (term.v < 0)
            continue;
        double x = term.axis == ham::Axis::X ? term.coeff : 0.0;
        double y = term.axis == ham::Axis::Y ? term.coeff : 0.0;
        double z = term.axis == ham::Axis::Z ? term.coeff : 0.0;
        c.add(qcir::Op::interact(term.u, term.v, x, y, z));
    }
    for (const auto &fl : h.fields()) {
        double angle = -2.0 * fl.coeff;
        c.add(fl.axis == ham::Axis::X   ? qcir::Op::rx(fl.q, angle)
              : fl.axis == ham::Axis::Y ? qcir::Op::ry(fl.q, angle)
                                        : qcir::Op::rz(fl.q, angle));
    }
    return c;
}

void
runUnifyAblation(Family f, int n)
{
    device::Topology topo = device::montreal27();
    std::mt19937_64 rng(core::sweepInstanceSeed(f, n, 0));
    qcir::Circuit raw = unUnifiedStep(f, n, rng);

    core::CompilerOptions with;
    with.seed = 42;
    core::CompilerOptions without = with;
    without.unifyCircuit = false;

    core::TqanCompiler cw(topo, with), co(topo, without);
    auto rw = cw.compile(raw);
    auto ro = co.compile(raw);
    auto mw = core::computeMetrics(rw.sched, raw,
                                   device::GateSet::Cnot);
    auto mo = core::computeMetrics(ro.sched, raw,
                                   device::GateSet::Cnot);
    printRow(f, topo.name(), "unify_circuit_on_raw", n, mw);
    printRow(f, topo.name(), "no_circuit_unify_raw", n, mo);
}

} // namespace

int
main()
{
    std::printf("%s\n", core::sweepCsvHeader().c_str());

    const Family fams[] = {Family::NnnHeisenberg, Family::NnnIsing,
                           Family::QaoaReg3};
    const int sizes[] = {10, 16, 22};

    for (Family f : fams) {
        for (int n : sizes) {
            core::CompilerOptions base;
            base.seed = 42;

            runConfig("full_2QAN", base, f, n);

            core::CompilerOptions o1 = base;
            o1.mapper = "anneal";
            runConfig("mapper_anneal", o1, f, n);
            core::CompilerOptions o2 = base;
            o2.mapper = "greedy";
            runConfig("mapper_greedy", o2, f, n);
            core::CompilerOptions o3 = base;
            o3.mapper = "line";
            runConfig("mapper_line", o3, f, n);
            core::CompilerOptions o4 = base;
            o4.mapper = "identity";
            runConfig("mapper_identity", o4, f, n);

            core::CompilerOptions o5 = base;
            o5.router.unifySwaps = false;
            runConfig("no_swap_unify", o5, f, n);

            core::CompilerOptions o6 = base;
            o6.hybridSchedule = false;
            runConfig("generic_scheduler", o6, f, n);

            if (f != Family::QaoaReg3)
                runUnifyAblation(f, n);
        }
    }
    return 0;
}
