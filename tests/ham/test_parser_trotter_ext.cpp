/**
 * @file
 * Tests for the Hamiltonian text format and the extended Trotter
 * constructions (second-order, randomized).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ham/models.h"
#include "ham/parser.h"
#include "ham/trotter.h"
#include "sim/statevector.h"

using namespace tqan;
using namespace tqan::ham;

TEST(Parser, RoundTrip)
{
    std::mt19937_64 rng(131);
    auto h = nnnHeisenberg(8, rng);
    h.addField(3, Axis::Z, -0.25);
    auto h2 = parseHamiltonian(formatHamiltonian(h));
    ASSERT_EQ(h2.numQubits(), 8);
    ASSERT_EQ(h2.pairs().size(), h.pairs().size());
    for (size_t i = 0; i < h.pairs().size(); ++i) {
        EXPECT_EQ(h2.pairs()[i].u, h.pairs()[i].u);
        EXPECT_NEAR(h2.pairs()[i].xx, h.pairs()[i].xx, 1e-9);
        EXPECT_NEAR(h2.pairs()[i].zz, h.pairs()[i].zz, 1e-9);
    }
    ASSERT_EQ(h2.fields().size(), h.fields().size());
}

TEST(Parser, AllKeywordsAndComments)
{
    auto h = parseHamiltonian("# comment\n"
                              "qubits 4\n"
                              "xx 0 1 0.5   # trailing comment\n"
                              "yy 0 1 0.25\n"
                              "zz 1 2 0.75\n"
                              "pair 2 3 0.1 0.2 0.3\n"
                              "\n"
                              "x 0 0.4\n"
                              "y 1 0.5\n"
                              "z 2 0.6\n");
    EXPECT_EQ(h.numQubits(), 4);
    ASSERT_EQ(h.pairs().size(), 3u);  // (0,1) folded
    EXPECT_NEAR(h.pairs()[0].xx, 0.5, 1e-12);
    EXPECT_NEAR(h.pairs()[0].yy, 0.25, 1e-12);
    EXPECT_EQ(h.fields().size(), 3u);
    EXPECT_EQ(h.fields()[1].axis, Axis::Y);
}

TEST(Parser, Failures)
{
    EXPECT_THROW(parseHamiltonian("xx 0 1 0.5\n"),
                 std::runtime_error);  // missing qubits line
    EXPECT_THROW(parseHamiltonian("qubits 2\nxx 0 5 0.5\n"),
                 std::runtime_error);  // out of range
    EXPECT_THROW(parseHamiltonian("qubits 2\nfrob 0 1 0.5\n"),
                 std::runtime_error);  // unknown keyword
    EXPECT_THROW(parseHamiltonian("qubits 2\nxx 0 1\n"),
                 std::runtime_error);  // missing coefficient
    EXPECT_THROW(parseHamiltonian("qubits 0\n"),
                 std::runtime_error);  // bad count
    EXPECT_THROW(parseHamiltonian("qubits 2\nqubits 3\n"),
                 std::runtime_error);  // duplicate
    // Every number is a whole token and every line an exact count.
    for (const char *junk :
         {"zz 0 1 0.5junk\n", "zz 1 2 0.5 7 8\n", "xx 0 1x 0.5\n",
          "pair 0 1 0.1 0.2 0.3 0.4\n", "x 0 0.5 # ok\nz 1 1e\n",
          "y 1 0x1p-1\n", "zz 0 1 nan\n"}) {
        EXPECT_THROW(parseHamiltonian(std::string("qubits 3\n") + junk),
                     std::runtime_error)
            << junk;
    }
    EXPECT_THROW(parseHamiltonian("qubits 3 4\n"), std::runtime_error);
    EXPECT_THROW(parseHamiltonian("qubits 3x\n"), std::runtime_error);
    try {
        parseHamiltonian("qubits 3\n\nzz 0 1 0.5junk\n");
        FAIL() << "junk-tailed coefficient was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "parseHamiltonian: line 3: bad number '0.5junk'");
    }
}

TEST(TrotterExt, SecondOrderStructure)
{
    std::mt19937_64 rng(132);
    auto h = nnnHeisenberg(6, rng);
    auto c1 = trotterStep(h, 0.5);
    auto c2 = secondOrderTrotterCircuit(h, 1.0, 1);
    // One second-order step = forward + backward half-steps.
    EXPECT_EQ(c2.size(), 2 * c1.size());
    // Palindrome: op k equals op (size-1-k) on the same qubits.
    int sz = c2.size();
    for (int k = 0; k < sz / 2; ++k) {
        EXPECT_EQ(c2.op(k).q0, c2.op(sz - 1 - k).q0);
        EXPECT_EQ(c2.op(k).q1, c2.op(sz - 1 - k).q1);
    }
}

TEST(TrotterExt, SecondOrderConvergesFaster)
{
    // Compare |<psi_exact|psi_trotter>| for first vs second order on
    // a small non-commuting model at equal step counts.  The exact
    // state is approximated by a very fine first-order formula.
    std::mt19937_64 rng(133);
    auto h = nnnHeisenberg(4, rng);
    const double t = 0.6;

    auto run = [&](const qcir::Circuit &c) {
        sim::Statevector psi(4);
        psi.applyPauli(0, 'X');  // some nontrivial initial state
        psi.applyCircuit(c);
        return psi;
    };
    sim::Statevector exact =
        run(trotterCircuit(h, t, 512, false));
    sim::Statevector first = run(trotterCircuit(h, t, 6, false));
    sim::Statevector second =
        run(secondOrderTrotterCircuit(h, t, 6));

    double f1 = first.fidelityWith(exact);
    double f2 = second.fidelityWith(exact);
    EXPECT_GT(f2, f1);
    EXPECT_GT(f2, 0.9);
}

TEST(TrotterExt, RandomizedPreservesTermMultiset)
{
    std::mt19937_64 rng(134);
    auto h = nnnXY(6, rng);
    auto c = randomizedTrotterCircuit(h, 1.0, 3, rng);
    auto ref = trotterStep(h, 1.0 / 3.0);
    EXPECT_EQ(c.size(), 3 * ref.size());
    // Each step contains every term exactly once: count 2q ops.
    EXPECT_EQ(c.twoQubitCount(), 3 * ref.twoQubitCount());
}

TEST(TrotterExt, RandomizedOrderDiffersAcrossSteps)
{
    std::mt19937_64 rng(135);
    auto h = nnnHeisenberg(8, rng);
    auto c = randomizedTrotterCircuit(h, 1.0, 2, rng);
    int per = c.size() / 2;
    bool any_diff = false;
    for (int k = 0; k < per && !any_diff; ++k) {
        const auto &a = c.op(k);
        const auto &b = c.op(per + k);
        if (a.q0 != b.q0 || a.q1 != b.q1)
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}
