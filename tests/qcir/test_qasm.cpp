/**
 * @file
 * Tests for the OpenQASM 2.0 exporter and parser: export shape,
 * export/import round trips, and malformed-input hardening (every
 * bad program must raise std::invalid_argument, never crash).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "decomp/pass.h"
#include "linalg/matrix.h"
#include "qcir/qasm.h"

using namespace tqan;
using qcir::Circuit;
using qcir::Op;

TEST(Qasm, BasicGates)
{
    Circuit c(3);
    c.add(Op::rx(0, 0.5));
    c.add(Op::cnot(0, 1));
    c.add(Op::cz(1, 2));
    std::string q = qcir::toQasm(c);
    EXPECT_NE(q.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(q.find("qreg q[3];"), std::string::npos);
    EXPECT_NE(q.find("rx(0.5) q[0];"), std::string::npos);
    EXPECT_NE(q.find("cx q[0],q[1];"), std::string::npos);
    EXPECT_NE(q.find("cz q[1],q[2];"), std::string::npos);
    // No custom gate headers needed.
    EXPECT_EQ(q.find("gate iswap"), std::string::npos);
}

TEST(Qasm, AnglesPrintLikeAStreamAtPrecision12)
{
    // toQasm formats numbers itself; its bytes must be those of an
    // ostream at precision(12) (printf's "%.12g").
    const double inf = std::numeric_limits<double>::infinity();
    const double values[] = {0.0,
                             -0.0,
                             1e-5,
                             1e21,
                             5e-324,
                             0.1 + 0.2,
                             M_PI,
                             -M_PI,
                             123456.789012,
                             1234567.89012,
                             -0.000123456789012,
                             123456789012.0,
                             1234567890123.0,
                             1.234567890123,
                             0.1234567890125,
                             inf,
                             -inf,
                             std::nan(""),
                             -std::nan("")};
    Circuit c(1001);
    std::ostringstream ref;
    ref.precision(12);
    ref << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1001];\n";
    int q = 0;
    for (double v : values) {
        c.add(Op::rx(q, v));
        c.add(Op::ry(q + 1, v));
        c.add(Op::rz(1000, v));
        c.add(Op::cnot(q, 1000));
        ref << "rx(" << v << ") q[" << q << "];\n";
        ref << "ry(" << v << ") q[" << q + 1 << "];\n";
        ref << "rz(" << v << ") q[1000];\n";
        ref << "cx q[" << q << "],q[1000];\n";
        q += 37;
    }
    EXPECT_EQ(qcir::toQasm(c), ref.str());
}

TEST(Qasm, U1qAsU3)
{
    Circuit c(1);
    c.add(Op::u1q(0, linalg::hadamard()));
    std::string q = qcir::toQasm(c);
    EXPECT_NE(q.find("u3("), std::string::npos);
}

TEST(Qasm, CustomGateHeaders)
{
    Circuit c(2);
    c.add(Op::iswap(0, 1));
    c.add(Op::syc(0, 1));
    std::string q = qcir::toQasm(c);
    EXPECT_NE(q.find("gate iswap"), std::string::npos);
    EXPECT_NE(q.find("gate syc"), std::string::npos);
    EXPECT_NE(q.find("iswap q[0],q[1];"), std::string::npos);
    EXPECT_NE(q.find("syc q[0],q[1];"), std::string::npos);
}

TEST(Qasm, RejectsApplicationLevelOps)
{
    Circuit c(2);
    c.add(Op::interact(0, 1, 0, 0, 0.3));
    EXPECT_THROW(qcir::toQasm(c), std::invalid_argument);

    Circuit s(2);
    s.add(Op::swap(0, 1));
    EXPECT_THROW(qcir::toQasm(s), std::invalid_argument);
}

TEST(Qasm, DecomposedCircuitExports)
{
    Circuit c(2);
    c.add(Op::dressedSwap(0, 1, 0.1, 0.2, 0.3));
    Circuit hw = decomp::decomposeToCnot(c);
    std::string q = qcir::toQasm(hw);
    EXPECT_NE(q.find("cx"), std::string::npos);
    // Line count sanity: header + qreg + one line per op.
    int lines = 0;
    for (char ch : q)
        if (ch == '\n')
            ++lines;
    EXPECT_EQ(lines, 3 + hw.size());
}

// ---------------------------------------------------------------
// Parser: round trips of the exporter's own output.
// ---------------------------------------------------------------

namespace {

/** Op-by-op equivalence: same kinds, qubits, and unitaries. */
void
expectSameCircuit(const Circuit &a, const Circuit &b)
{
    ASSERT_EQ(a.numQubits(), b.numQubits());
    ASSERT_EQ(a.size(), b.size());
    for (int i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("op " + std::to_string(i));
        EXPECT_EQ(a.op(i).kind, b.op(i).kind);
        EXPECT_EQ(a.op(i).q0, b.op(i).q0);
        EXPECT_EQ(a.op(i).q1, b.op(i).q1);
        if (a.op(i).isTwoQubit())
            EXPECT_LT(linalg::phaseDistance(a.op(i).unitary4(),
                                            b.op(i).unitary4()),
                      1e-9);
        else
            EXPECT_LT(linalg::phaseDistance(a.op(i).unitary2(),
                                            b.op(i).unitary2()),
                      1e-9);
    }
}

} // namespace

TEST(QasmParse, RoundTripBasicGates)
{
    Circuit c(3);
    c.add(Op::rx(0, 0.5));
    c.add(Op::ry(1, -1.25));
    c.add(Op::rz(2, 2.0));
    c.add(Op::cnot(0, 1));
    c.add(Op::cz(1, 2));
    Circuit back = qcir::parseQasm(qcir::toQasm(c));
    expectSameCircuit(c, back);
    // A second trip is textually stable.
    EXPECT_EQ(qcir::toQasm(back), qcir::toQasm(c));
}

TEST(QasmParse, RoundTripCustomGatesAndU3)
{
    Circuit c(2);
    c.add(Op::u1q(0, linalg::hadamard()));
    c.add(Op::iswap(0, 1));
    c.add(Op::syc(1, 0));
    Circuit back = qcir::parseQasm(qcir::toQasm(c));
    ASSERT_EQ(back.size(), 3);
    EXPECT_EQ(back.op(0).kind, qcir::OpKind::U1q);
    EXPECT_LT(linalg::phaseDistance(back.op(0).unitary2(),
                                    linalg::hadamard()),
              1e-9);
    EXPECT_EQ(back.op(1).kind, qcir::OpKind::ISwap);
    EXPECT_EQ(back.op(2).kind, qcir::OpKind::Syc);
    EXPECT_EQ(back.op(2).q0, 1);
    EXPECT_EQ(qcir::toQasm(back), qcir::toQasm(c));
}

TEST(QasmParse, RoundTripDecomposedCompilerOutput)
{
    Circuit c(3);
    c.add(Op::interact(0, 1, 0.3, 0.2, 0.1));
    c.add(Op::dressedSwap(1, 2, 0.1, 0.2, 0.3));
    Circuit hw = decomp::decomposeToCnot(c);
    Circuit back = qcir::parseQasm(qcir::toQasm(hw));
    expectSameCircuit(hw, back);
}

// ---------------------------------------------------------------
// Parser: malformed inputs die cleanly with std::invalid_argument.
// ---------------------------------------------------------------

TEST(QasmParse, TruncatedOrMissingHeader)
{
    EXPECT_THROW(qcir::parseQasm(""), std::invalid_argument);
    EXPECT_THROW(qcir::parseQasm("OPENQASM 2.0"),
                 std::invalid_argument);  // no ';'
    EXPECT_THROW(qcir::parseQasm("OPENQASM 3.0;\nqreg q[2];\n"),
                 std::invalid_argument);
    EXPECT_THROW(qcir::parseQasm("qreg q[2];\ncx q[0],q[1];\n"),
                 std::invalid_argument);
}

TEST(QasmParse, MissingQreg)
{
    EXPECT_THROW(qcir::parseQasm("OPENQASM 2.0;\n"),
                 std::invalid_argument);
    EXPECT_THROW(
        qcir::parseQasm("OPENQASM 2.0;\ncx q[0],q[1];\n"),
        std::invalid_argument);
    EXPECT_THROW(
        qcir::parseQasm(
            "OPENQASM 2.0;\nqreg q[2];\nqreg q[3];\n"),
        std::invalid_argument);
    EXPECT_THROW(qcir::parseQasm("OPENQASM 2.0;\nqreg q[0];\n"),
                 std::invalid_argument);
}

TEST(QasmParse, UnknownGate)
{
    EXPECT_THROW(
        qcir::parseQasm(
            "OPENQASM 2.0;\nqreg q[2];\nfoo q[0],q[1];\n"),
        std::invalid_argument);
    // Gate known to qelib1 but outside the exporter's dialect.
    EXPECT_THROW(
        qcir::parseQasm("OPENQASM 2.0;\nqreg q[2];\nccx "
                        "q[0],q[1],q[0];\n"),
        std::invalid_argument);
}

TEST(QasmParse, BadQubitIndex)
{
    EXPECT_THROW(
        qcir::parseQasm("OPENQASM 2.0;\nqreg q[2];\nrx(0.5) "
                        "q[2];\n"),
        std::invalid_argument);
    EXPECT_THROW(
        qcir::parseQasm("OPENQASM 2.0;\nqreg q[2];\ncx "
                        "q[0],q[7];\n"),
        std::invalid_argument);
    EXPECT_THROW(
        qcir::parseQasm("OPENQASM 2.0;\nqreg q[2];\ncx "
                        "q[0],q[x];\n"),
        std::invalid_argument);
    EXPECT_THROW(
        qcir::parseQasm("OPENQASM 2.0;\nqreg q[2];\ncx "
                        "q[0],q[0];\n"),
        std::invalid_argument);
}

TEST(QasmParse, MalformedStatements)
{
    // Truncated tail (no ';'), bad arity, unparsable angle,
    // unterminated gate body.
    EXPECT_THROW(
        qcir::parseQasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0]"),
        std::invalid_argument);
    EXPECT_THROW(
        qcir::parseQasm(
            "OPENQASM 2.0;\nqreg q[2];\nrx(0.5) q[0],q[1];\n"),
        std::invalid_argument);
    EXPECT_THROW(
        qcir::parseQasm(
            "OPENQASM 2.0;\nqreg q[2];\nrx(zz) q[0];\n"),
        std::invalid_argument);
    EXPECT_THROW(
        qcir::parseQasm("OPENQASM 2.0;\ngate foo a,b { cx a,b;\n"),
        std::invalid_argument);
}

TEST(QasmParse, AcceptsSpacesInsideParameterLists)
{
    // Valid OpenQASM 2.0 spacing the exporter doesn't emit itself.
    Circuit c = qcir::parseQasm(
        "OPENQASM 2.0;\nqreg q[2];\n"
        "u3( 0.1, 0.2, 0.3 ) q[0];\nrx (0.5) q[1];\n");
    ASSERT_EQ(c.size(), 2);
    EXPECT_EQ(c.op(0).kind, qcir::OpKind::U1q);
    EXPECT_EQ(c.op(1).kind, qcir::OpKind::Rx);
    EXPECT_DOUBLE_EQ(c.op(1).theta, 0.5);
}

TEST(QasmParse, ErrorMessagesCarryLineNumbers)
{
    try {
        qcir::parseQasm(
            "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[9];\n");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos)
            << e.what();
    }
}
