/**
 * @file
 * Oracle-mode selection and scale-limit tests:
 *
 *  - boundary behaviour at N == maxFullQubits / maxFullQubits + 1,
 *  - every configured ceiling clamped to the statevector hard limit
 *    (no oracle may ever attempt a 2^40-amplitude allocation),
 *  - stabilizer-mode selection, embedding and corruption detection
 *    far above any statevector ceiling,
 *  - the named oracle-unavailable outcome (never a crash, never a
 *    silent accept), surfaced through checkCompilation and the fuzz
 *    harness as skipped-with-reason, including reproducer replay,
 *  - the shared topology-size bound of the parametric device specs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/limits.h"
#include "device/devices.h"
#include "sim/stabilizer.h"
#include "verify/equivalence.h"
#include "verify/fuzz.h"

using namespace tqan;
using qcir::Circuit;
using qcir::Op;
using verify::CheckMode;
using verify::EquivalenceChecker;
using verify::EquivalenceOptions;
using verify::EquivalenceReport;

namespace {

constexpr double kPi = 3.14159265358979323846;

/** Shallow generic (non-Clifford) circuit: one rotation layer, a
 * CNOT ladder, one more rotation layer.  Back-evolved observables
 * stay low-weight, so the pauli-probe oracle decides it at any n. */
Circuit
shallowCircuit(int n)
{
    Circuit c(n);
    for (int q = 0; q < n; ++q)
        c.add(Op::rz(q, 0.3 + 0.01 * q));
    for (int q = 0; q + 1 < n; q += 2)
        c.add(Op::cnot(q, q + 1));
    for (int q = 0; q < n; ++q)
        c.add(Op::rx(q, 0.4 + 0.005 * q));
    return c;
}

/** Random Clifford circuit (multiples of pi/2 rotations, CNOTs,
 * k*pi/4 interactions). */
Circuit
cliffordCircuit(int n, int gates, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> qd(0, n - 1);
    std::uniform_int_distribution<int> kd(0, 3);
    Circuit c(n);
    for (int i = 0; i < gates; ++i) {
        int q0 = qd(rng), q1 = qd(rng);
        while (q1 == q0)
            q1 = qd(rng);
        switch (rng() % 4) {
          case 0:
            c.add(Op::rz(q0, kd(rng) * kPi / 2));
            break;
          case 1:
            c.add(Op::rx(q0, kd(rng) * kPi / 2));
            break;
          case 2:
            c.add(Op::cnot(q0, q1));
            break;
          default:
            c.add(Op::interact(q0, q1, kd(rng) * kPi / 4,
                               kd(rng) * kPi / 4,
                               kd(rng) * kPi / 4));
            break;
        }
    }
    return c;
}

/** Dense generic layers: scrambles any back-evolved observable past
 * every truncation ceiling. */
Circuit
scramblerCircuit(int n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> a(0.3, 1.1);
    Circuit c(n);
    for (int layer = 0; layer < 4; ++layer)
        for (int q = 0; q + 1 < n; ++q)
            c.add(Op::interact(q, q + 1, a(rng), a(rng), a(rng)));
    return c;
}

Circuit
embedded(const Circuit &c, const qap::Placement &map, int devQubits)
{
    Circuit out(devQubits);
    for (const auto &o : c.ops()) {
        Op m = o;
        m.q0 = map[o.q0];
        if (o.q1 >= 0)
            m.q1 = map[o.q1];
        out.add(m);
    }
    return out;
}

} // namespace

TEST(OracleModes, BoundaryAtMaxFullQubits)
{
    EquivalenceOptions opt;
    opt.maxFullQubits = 6;
    opt.maxStateQubits = 8;
    EquivalenceChecker chk(opt);

    // N == maxFullQubits: the full overlap oracle.
    EquivalenceReport atCeiling =
        chk.check(shallowCircuit(6), shallowCircuit(6));
    EXPECT_TRUE(atCeiling.equivalent) << atCeiling.detail;
    EXPECT_EQ(atCeiling.mode, CheckMode::Full);

    // N == maxFullQubits + 1: one past the ceiling, the scalar
    // probe oracle takes over (non-Clifford, N <= maxStateQubits).
    EquivalenceReport pastCeiling =
        chk.check(shallowCircuit(7), shallowCircuit(7));
    EXPECT_TRUE(pastCeiling.equivalent) << pastCeiling.detail;
    EXPECT_EQ(pastCeiling.mode, CheckMode::Probe);

    // N > maxStateQubits: no statevector at all.
    EquivalenceReport beyond =
        chk.check(shallowCircuit(9), shallowCircuit(9));
    EXPECT_TRUE(beyond.equivalent) << beyond.detail;
    EXPECT_EQ(beyond.mode, CheckMode::PauliProbe);
}

TEST(OracleModes, CeilingsClampToStatevectorHardLimit)
{
    // Asking for full statevector comparison at 1e6 qubits must not
    // be honoured above the hard limit: a 34-qubit check under these
    // options would need a 256 GiB statevector if the clamp
    // regressed.  It must select the pauli-probe oracle and decide.
    EquivalenceOptions opt;
    opt.maxFullQubits = 1000000;
    opt.maxStateQubits = 1000000;
    EquivalenceChecker chk(opt);

    Circuit c = shallowCircuit(34);
    EquivalenceReport rep = chk.check(c, c);
    EXPECT_EQ(rep.mode, CheckMode::PauliProbe);
    EXPECT_TRUE(rep.equivalent) << rep.detail;
    EXPECT_FALSE(rep.oracleUnavailable);

    // Small devices still get the full oracle under the same
    // options.
    EXPECT_EQ(chk.check(shallowCircuit(4), shallowCircuit(4)).mode,
              CheckMode::Full);
}

TEST(OracleModes, PauliProbeDetectsCorruptionBeyondStatevector)
{
    EquivalenceChecker chk;
    Circuit c = shallowCircuit(40);

    // Trailing phase corruption: only visible through the random
    // output frame (same failure class the scalar probe pins).
    Circuit trailing = c;
    trailing.add(Op::rz(5, 0.8));
    EquivalenceReport rep = chk.check(c, trailing);
    EXPECT_EQ(rep.mode, CheckMode::PauliProbe);
    EXPECT_FALSE(rep.equivalent);

    // Angle corruption in the final rotation layer (ops are 40 rz,
    // 20 cnot, then 40 rx; index 65 is the rx on qubit 5).
    Circuit bumped = c;
    bumped.ops()[65].theta += 0.6;
    EXPECT_FALSE(chk.check(c, bumped).equivalent);
}

TEST(OracleModes, StabilizerSelectedForCliffordAtScale)
{
    // 60 qubits: far beyond every statevector ceiling, yet both
    // circuits are Clifford, so the tableau oracle verifies EXACTLY.
    Circuit c = cliffordCircuit(60, 180, 0xC11F0001ULL);
    ASSERT_TRUE(sim::isCliffordCircuit(c));

    EquivalenceChecker chk;
    EquivalenceReport rep = chk.check(c, c);
    EXPECT_EQ(rep.mode, CheckMode::Stabilizer);
    EXPECT_TRUE(rep.equivalent) << rep.detail;
    EXPECT_EQ(rep.worstDeviation, 0.0);

    // A single appended X (still Clifford, so still the stabilizer
    // oracle) must be rejected -- exact arithmetic, no tolerance.
    Circuit bad = c;
    bad.add(Op::rx(0, kPi));
    EquivalenceReport badRep = chk.check(c, bad);
    EXPECT_EQ(badRep.mode, CheckMode::Stabilizer);
    EXPECT_FALSE(badRep.equivalent);
}

TEST(OracleModes, StabilizerHandlesEmbeddingAndWitnesses)
{
    // Logical 40-qubit Clifford circuit embedded at device qubits
    // 4..43 of a 44-qubit register, one final SWAP moving logical 0
    // to device 0; unmapped qubits are witnessed to stay |0>.
    int n = 40, N = 44;
    Circuit logical = cliffordCircuit(n, 120, 0xC11F0002ULL);
    qap::Placement init(n);
    for (int q = 0; q < n; ++q)
        init[q] = q + 4;
    Circuit device = embedded(logical, init, N);
    device.add(Op::swap(4, 0));
    qap::Placement fin = init;
    fin[0] = 0;

    EquivalenceChecker chk;
    EquivalenceReport rep = chk.check(logical, device, init, fin);
    EXPECT_EQ(rep.mode, CheckMode::Stabilizer);
    EXPECT_TRUE(rep.equivalent) << rep.detail;

    // Wrong final map: rejected.
    EXPECT_FALSE(chk.check(logical, device, init, init).equivalent);

    // Junk on an unmapped device qubit: rejected by the Z witness.
    Circuit junk = device;
    junk.add(Op::rx(2, kPi));
    EXPECT_FALSE(chk.check(logical, junk, init, fin).equivalent);
}

TEST(OracleModes, OracleUnavailableIsNamedNotACrash)
{
    // A scrambling circuit at 32 qubits with identity maps: no
    // witnesses exist and every back-evolved probe blows through the
    // (deliberately tiny) truncation ceiling.  The checker must
    // return the named oracle-unavailable outcome -- not throw, not
    // allocate a statevector, not silently accept.
    Circuit c = scramblerCircuit(32, 0x5C4A3BULL);
    EquivalenceOptions opt;
    opt.pauliProbeMaxTerms = 8;
    opt.pauliProbeBudget = 0.01;
    EquivalenceChecker chk(opt);

    EquivalenceReport rep = chk.check(c, c);
    EXPECT_EQ(rep.mode, CheckMode::PauliProbe);
    EXPECT_TRUE(rep.oracleUnavailable);
    EXPECT_FALSE(rep.equivalent);
    EXPECT_NE(rep.detail.find("unavailable"), std::string::npos)
        << rep.detail;
    EXPECT_NE(rep.detail.find("pauli-probe"), std::string::npos)
        << rep.detail;
}

TEST(OracleModes, FuzzSurfacesUnavailableAsSkippedWithReason)
{
    // Over-ceiling scenarios whose probes cannot survive a 1-term
    // truncation ceiling: the fuzz loop must complete with zero
    // failures and report every case as skipped-with-reason naming
    // the refusing oracle (the bugfix contract: previously this
    // class of input died on an escaping length error).
    verify::FuzzOptions opt;
    opt.iterations = 4;
    opt.seed = 11;
    opt.backends = {"2qan"};
    opt.mapperTrials = 1;
    opt.check.checkDecompositions = false;
    opt.check.equivalence.pauliProbeMaxTerms = 1;
    opt.check.equivalence.pauliProbeBudget = 1e-9;
    // n == device qubits == 28 > maxStateQubits: pauli-probe mode
    // with no unmapped-qubit witnesses to fall back on.
    opt.scenario.minQubits = 28;
    opt.scenario.maxQubits = 28;
    opt.scenario.maxDeviceQubits = 28;

    verify::FuzzSummary sum = verify::runFuzz(opt);
    EXPECT_TRUE(sum.failures.empty());
    EXPECT_GT(sum.cases, 0);
    EXPECT_EQ(sum.skippedCases, sum.cases);
    ASSERT_FALSE(sum.skips.empty());
    for (const auto &k : sum.skips) {
        EXPECT_NE(k.reason.find("pauli-probe"), std::string::npos)
            << k.reason;
        EXPECT_NE(k.reason.find("unavailable"), std::string::npos)
            << k.reason;
    }
    EXPECT_NE(verify::summaryLine(sum).find("skipped"),
              std::string::npos);

    // Reproducer replay of an over-ceiling spec reports WHICH oracle
    // refused and why (the runScenario path tqan-fuzz --replay
    // prints), instead of claiming a clean verify or crashing.
    testgen::Scenario s = testgen::randomScenario(
        sum.skips.front().scenarioSeed, opt.scenario);
    testgen::Scenario back =
        testgen::scenarioFromSpec(testgen::toSpec(s));
    std::vector<verify::FuzzSkip> skips;
    EXPECT_TRUE(verify::runScenario(back, opt, &skips).empty());
    ASSERT_FALSE(skips.empty());
    EXPECT_EQ(skips.front().backend, "2qan");
    EXPECT_NE(skips.front().reason.find("pauli-probe"),
              std::string::npos)
        << skips.front().reason;
}

TEST(OracleModes, ParametricDeviceSpecsShareTheTopologyBound)
{
    // One named limit (core/limits.h) gates every parametric spec
    // family; previously each parser had its own (divergent) cap.
    EXPECT_NO_THROW(device::deviceByName("grid:3x4"));
    EXPECT_NO_THROW(device::deviceByName("heavyhex:3"));

    EXPECT_THROW(device::deviceByName("grid:200x200"),
                 std::invalid_argument);
    EXPECT_THROW(device::deviceByName("heavyhex:999"),
                 std::invalid_argument);
    EXPECT_THROW(
        device::deviceByName(
            "line:" +
            std::to_string(core::kMaxTopologyQubits + 1)),
        std::invalid_argument);

    // heavy-hex parameters must be odd and >= 3 (the IBM families).
    EXPECT_THROW(device::deviceByName("heavyhex:4"),
                 std::invalid_argument);
    EXPECT_EQ(device::deviceByName("heavyhex:5").numQubits(), 65);

    // Integers are strict decimals, like the custom:N parser: no
    // sign, no blanks on either side.
    for (const char *spec : {"line: 5", "line:+5", "line:5 ",
                             "grid:+2x 3", "ring:-4", "heavyhex:+3"})
        EXPECT_THROW(device::deviceByName(spec), std::invalid_argument)
            << spec;
}
