#include "qcir/qasm.h"

#include <cctype>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "linalg/su2.h"

namespace tqan {
namespace qcir {

namespace {

/** Append v as printf's "%.12g" would print it (what an ostream at
 * precision(12) wrote). */
void
appendNumber(std::string &out, double v)
{
    char buf[32];
    auto r = std::to_chars(buf, buf + sizeof(buf), v,
                           std::chars_format::general, 12);
    out.append(buf, r.ptr);
}

void
appendNumber(std::string &out, int v)
{
    char buf[16];
    auto r = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, r.ptr);
}

/** "<gate>(<theta>) q[<q>];\n" */
void
appendRotation(std::string &out, const char *gate, const Op &op)
{
    out += gate;
    out += '(';
    appendNumber(out, op.theta);
    out += ") q[";
    appendNumber(out, op.q0);
    out += "];\n";
}

/** "<gate> q[<q0>],q[<q1>];\n" */
void
appendTwoQubit(std::string &out, const char *gate, const Op &op)
{
    out += gate;
    out += " q[";
    appendNumber(out, op.q0);
    out += "],q[";
    appendNumber(out, op.q1);
    out += "];\n";
}

} // namespace

std::string
toQasm(const Circuit &c)
{
    std::string os;
    os.reserve(64 + 32 * static_cast<size_t>(c.size()));
    os += "OPENQASM 2.0;\n";
    os += "include \"qelib1.inc\";\n";

    bool has_iswap = c.countKind(OpKind::ISwap) > 0;
    bool has_syc = c.countKind(OpKind::Syc) > 0;
    if (has_iswap) {
        os += "gate iswap a,b { s a; s b; h a; cx a,b; cx b,a; "
              "h b; }\n";
    }
    if (has_syc) {
        // fSim(pi/2, pi/6) = iSWAP^dag followed by a -pi/6 phase on
        // |11>; expressed with cu1 + the iswap expansion.
        os += "gate syc a,b { sdg a; sdg b; h b; cx b,a; cx a,b; "
              "h a; cu1(-pi/6) a,b; }\n";
    }
    os += "qreg q[";
    appendNumber(os, c.numQubits());
    os += "];\n";

    for (const auto &op : c.ops()) {
        switch (op.kind) {
          case OpKind::Rx:
            appendRotation(os, "rx", op);
            break;
          case OpKind::Ry:
            appendRotation(os, "ry", op);
            break;
          case OpKind::Rz:
            appendRotation(os, "rz", op);
            break;
          case OpKind::U1q: {
            linalg::Zyz d = linalg::zyzDecompose(op.unitary2());
            // u3(theta, phi, lambda) = Rz(phi) Ry(theta) Rz(lambda)
            // up to global phase.
            os += "u3(";
            appendNumber(os, d.beta);
            os += ',';
            appendNumber(os, d.alpha);
            os += ',';
            appendNumber(os, d.gamma);
            os += ") q[";
            appendNumber(os, op.q0);
            os += "];\n";
            break;
          }
          case OpKind::Cnot:
            appendTwoQubit(os, "cx", op);
            break;
          case OpKind::Cz:
            appendTwoQubit(os, "cz", op);
            break;
          case OpKind::ISwap:
            appendTwoQubit(os, "iswap", op);
            break;
          case OpKind::Syc:
            appendTwoQubit(os, "syc", op);
            break;
          case OpKind::Interact:
          case OpKind::Swap:
          case OpKind::DressedSwap:
          case OpKind::U2q:
            throw std::invalid_argument(
                "toQasm: circuit contains application-level op '" +
                opKindName(op.kind) +
                "'; run a decomposition pass first");
        }
    }
    return os;
}

namespace {

/** One ';'-terminated statement with the line it started on. */
struct Statement
{
    std::string text;
    int line;
};

/** Sanity cap on register declarations: far above every real device
 * (the repo's largest is 65 qubits) yet small enough that a
 * generator-crafted "qreg q[2000000000]" cannot push callers that
 * size per-qubit buffers into allocation blowups. */
constexpr int kMaxQregSize = 1 << 20;

[[noreturn]] void
parseError(int line, const std::string &what)
{
    throw std::invalid_argument("parseQasm: line " +
                                std::to_string(line) + ": " + what);
}

std::string
stripped(const std::string &s)
{
    size_t a = s.find_first_not_of(" \t\r\n");
    if (a == std::string::npos)
        return "";
    size_t b = s.find_last_not_of(" \t\r\n");
    return s.substr(a, b - a + 1);
}

/**
 * Split the source into statements: '//' comments removed, gate
 * definitions consumed as one statement up to their closing brace
 * (bodies contain ';'), everything else split at ';'.  A trailing
 * fragment without ';' is a truncation error.
 */
std::vector<Statement>
statementsOf(const std::string &src)
{
    std::vector<Statement> out;
    std::string cur;
    int line = 1, curLine = 1;
    int braceDepth = 0;
    for (size_t i = 0; i < src.size(); ++i) {
        if (src[i] == '/' && i + 1 < src.size() &&
            src[i + 1] == '/') {
            while (i < src.size() && src[i] != '\n')
                ++i;
            --i;
            continue;
        }
        if (src[i] == '\n')
            ++line;
        if (src[i] == '{') {
            ++braceDepth;
        } else if (src[i] == '}') {
            if (braceDepth == 0)
                parseError(line, "unmatched '}'");
            if (--braceDepth == 0) {
                out.push_back({stripped(cur + '}'), curLine});
                cur.clear();
                curLine = line;
                continue;
            }
        } else if (src[i] == ';' && braceDepth == 0) {
            std::string stmt = stripped(cur);
            if (!stmt.empty())
                out.push_back({stmt, curLine});
            cur.clear();
            curLine = line;
            continue;
        }
        if (cur.empty() && stripped(std::string(1, src[i])).empty())
        {
            curLine = line;
            continue;
        }
        cur += src[i];
    }
    if (braceDepth != 0)
        parseError(line, "unterminated gate body ('{' without '}')");
    if (!stripped(cur).empty())
        parseError(curLine, "truncated statement '" + stripped(cur) +
                                "' (missing ';')");
    return out;
}

/** Split "name(p1,p2)" / "name" heads and "q[i],q[j]" operand
 * lists. */
std::vector<std::string>
splitArgs(const std::string &s, int line)
{
    std::vector<std::string> out;
    std::string cur;
    int depth = 0;
    for (char c : s) {
        if (c == '(')
            ++depth;
        else if (c == ')')
            --depth;
        if (c == ',' && depth == 0) {
            out.push_back(stripped(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(stripped(cur));
    for (const auto &a : out)
        if (a.empty())
            parseError(line, "empty argument in '" + s + "'");
    return out;
}

double
parsedAngle(const std::string &s, int line)
{
    try {
        size_t used = 0;
        double v = std::stod(s, &used);
        if (stripped(s.substr(used)).empty())
            return v;
    } catch (const std::exception &) {
    }
    parseError(line, "unparsable angle '" + s + "'");
}

int
parsedQubit(const std::string &s, int numQubits, int line)
{
    std::string t = stripped(s);
    if (t.size() < 4 || t.compare(0, 2, "q[") != 0 ||
        t.back() != ']')
        parseError(line, "expected operand q[i], got '" + s + "'");
    std::string idx = t.substr(2, t.size() - 3);
    int q = -1;
    try {
        size_t used = 0;
        q = std::stoi(idx, &used);
        if (used != idx.size())
            q = -1;
    } catch (const std::exception &) {
    }
    if (q < 0)
        parseError(line, "bad qubit index '" + idx + "'");
    if (q >= numQubits)
        parseError(line, "qubit index " + std::to_string(q) +
                             " out of range (qreg q[" +
                             std::to_string(numQubits) + "])");
    return q;
}

} // namespace

Circuit
parseQasm(const std::string &src)
{
    std::vector<Statement> stmts = statementsOf(src);
    if (stmts.empty())
        throw std::invalid_argument(
            "parseQasm: empty input (missing OPENQASM 2.0 header)");
    if (stmts.front().text != "OPENQASM 2.0")
        parseError(stmts.front().line,
                   "expected 'OPENQASM 2.0;' header, got '" +
                       stmts.front().text + "'");

    Circuit circuit;
    bool haveQreg = false;
    for (size_t s = 1; s < stmts.size(); ++s) {
        const std::string &stmt = stmts[s].text;
        const int line = stmts[s].line;
        if (stmt.compare(0, 8, "include ") == 0)
            continue;
        if (stmt.compare(0, 5, "gate ") == 0) {
            // Definition header (iswap / syc); applications of the
            // defined gate are handled natively below.
            if (stmt.back() != '}')
                parseError(line, "malformed gate definition");
            continue;
        }
        if (stmt.compare(0, 5, "qreg ") == 0) {
            if (haveQreg)
                parseError(line,
                           "more than one qreg (duplicate register "
                           "declaration)");
            std::string body = stripped(stmt.substr(5));
            if (body.compare(0, 2, "q[") != 0 || body.back() != ']')
                parseError(line,
                           "expected qreg q[N], got '" + stmt + "'");
            std::string num = body.substr(2, body.size() - 3);
            int n = 0;
            try {
                size_t used = 0;
                n = std::stoi(num, &used);
                if (used != num.size())
                    n = 0;
            } catch (const std::exception &) {
            }
            if (n <= 0)
                parseError(line, "bad qreg size '" + num + "'");
            if (n > kMaxQregSize)
                parseError(line,
                           "implausible qreg size " +
                               std::to_string(n) + " (limit " +
                               std::to_string(kMaxQregSize) + ")");
            circuit = Circuit(n);
            haveQreg = true;
            continue;
        }
        // Legal OpenQASM 2.0 the toQasm dialect does not model:
        // reject with a statement-class error instead of a
        // misleading gate-lookup failure.
        for (const char *unsupported :
             {"creg ", "measure ", "barrier ", "reset ", "if ",
              "if(", "opaque "}) {
            if (stmt.compare(0, std::strlen(unsupported),
                             unsupported) == 0)
                parseError(line,
                           "unsupported statement '" + stmt +
                               "' (the tqan dialect is purely "
                               "unitary: no classical registers, "
                               "measurement, barriers or "
                               "conditionals)");
        }

        // Gate application: NAME [(params)] operands.  Whitespace
        // is free around the parameter list, and the list itself
        // may contain spaces ("u3( 0.1, 0.2, 0.3 ) q[0]").
        size_t p = 0;
        while (p < stmt.size() &&
               (std::isalnum(
                    static_cast<unsigned char>(stmt[p])) ||
                stmt[p] == '_'))
            ++p;
        std::string name = stmt.substr(0, p);
        if (name.empty())
            parseError(line, "malformed statement '" + stmt + "'");
        while (p < stmt.size() &&
               std::isspace(static_cast<unsigned char>(stmt[p])))
            ++p;
        std::vector<double> params;
        if (p < stmt.size() && stmt[p] == '(') {
            size_t start = p + 1;
            size_t q = start;
            for (int depth = 1; depth > 0; ++q) {
                if (q >= stmt.size())
                    parseError(line,
                               "malformed parameter list in '" +
                                   stmt + "'");
                if (stmt[q] == '(')
                    ++depth;
                else if (stmt[q] == ')')
                    --depth;
            }
            for (const std::string &ps : splitArgs(
                     stmt.substr(start, q - 1 - start), line))
                params.push_back(parsedAngle(ps, line));
            p = q;
            while (p < stmt.size() &&
                   std::isspace(
                       static_cast<unsigned char>(stmt[p])))
                ++p;
        }
        std::string operands = stripped(stmt.substr(p));
        if (operands.empty())
            parseError(line, "missing operands in '" + stmt + "'");
        if (!haveQreg)
            parseError(line, "gate application before qreg");

        std::vector<int> qs;
        for (const std::string &o : splitArgs(operands, line))
            qs.push_back(
                parsedQubit(o, circuit.numQubits(), line));

        auto want = [&](size_t nparams, size_t nqubits) {
            if (params.size() != nparams)
                parseError(line, "gate '" + name + "' takes " +
                                     std::to_string(nparams) +
                                     " parameter(s)");
            if (qs.size() != nqubits)
                parseError(line, "gate '" + name + "' takes " +
                                     std::to_string(nqubits) +
                                     " qubit(s)");
            if (nqubits == 2 && qs[0] == qs[1])
                parseError(line, "gate '" + name +
                                     "' needs distinct qubits");
        };
        if (name == "rx") {
            want(1, 1);
            circuit.add(Op::rx(qs[0], params[0]));
        } else if (name == "ry") {
            want(1, 1);
            circuit.add(Op::ry(qs[0], params[0]));
        } else if (name == "rz") {
            want(1, 1);
            circuit.add(Op::rz(qs[0], params[0]));
        } else if (name == "u3") {
            want(3, 1);
            // u3(theta, phi, lambda) = Rz(phi) Ry(theta) Rz(lambda).
            circuit.add(Op::u1q(
                qs[0], linalg::zyzReconstruct(
                           {params[1], params[0], params[2], 0.0})));
        } else if (name == "cx") {
            want(0, 2);
            circuit.add(Op::cnot(qs[0], qs[1]));
        } else if (name == "cz") {
            want(0, 2);
            circuit.add(Op::cz(qs[0], qs[1]));
        } else if (name == "iswap") {
            want(0, 2);
            circuit.add(Op::iswap(qs[0], qs[1]));
        } else if (name == "syc") {
            want(0, 2);
            circuit.add(Op::syc(qs[0], qs[1]));
        } else {
            parseError(line, "unknown gate '" + name + "'");
        }
    }
    if (!haveQreg)
        throw std::invalid_argument(
            "parseQasm: no qreg declaration (truncated program?)");
    return circuit;
}

} // namespace qcir
} // namespace tqan
