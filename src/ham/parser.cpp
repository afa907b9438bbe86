#include "ham/parser.h"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "service/json.h"

namespace tqan {
namespace ham {

namespace {

[[noreturn]] void
fail(int line, const std::string &msg)
{
    std::ostringstream os;
    os << "parseHamiltonian: line " << line << ": " << msg;
    throw std::runtime_error(os.str());
}

} // namespace

TwoLocalHamiltonian
parseHamiltonian(std::istream &in)
{
    std::string raw;
    std::vector<std::string> tok;
    int lineno = 0;
    // Collected before the Hamiltonian exists (qubits line may come
    // first only; enforce that for sane diagnostics).
    TwoLocalHamiltonian h(1);
    bool have_h = false;

    while (std::getline(in, raw)) {
        ++lineno;
        std::istringstream is(raw.substr(0, raw.find('#')));
        tok.clear();
        for (std::string t; is >> t;)
            tok.push_back(std::move(t));
        if (tok.empty())
            continue;  // blank / comment line
        const std::string &kw = tok[0];
        // Each keyword takes an exact argument count, and every
        // number is a whole token: "0.5junk" or a stray trailing
        // value is an error, never silently dropped.
        auto expectArgs = [&](size_t n, const std::string &usage) {
            if (tok.size() != n + 1)
                fail(lineno, "expected: " + usage);
        };
        auto intAt = [&](size_t k) {
            int v = 0;
            if (!service::parseI32(tok[k], &v))
                fail(lineno, "bad integer '" + tok[k] + "'");
            return v;
        };
        auto realAt = [&](size_t k) {
            double v = 0.0;
            if (!service::parseF64(tok[k], &v))
                fail(lineno, "bad number '" + tok[k] + "'");
            return v;
        };

        if (kw == "qubits") {
            if (have_h)
                fail(lineno, "duplicate 'qubits' line");
            expectArgs(1, "qubits N");
            int n = 0;
            if (!service::parseI32(tok[1], &n) || n < 1)
                fail(lineno, "bad qubit count");
            h = TwoLocalHamiltonian(n);
            have_h = true;
            continue;
        }
        if (!have_h)
            fail(lineno, "'qubits N' must come first");

        try {
            if (kw == "xx" || kw == "yy" || kw == "zz") {
                expectArgs(3, kw + " u v coeff");
                int u = intAt(1), v = intAt(2);
                double c = realAt(3);
                h.addPair(u, v, kw == "xx" ? c : 0.0,
                          kw == "yy" ? c : 0.0, kw == "zz" ? c : 0.0);
            } else if (kw == "pair") {
                expectArgs(5, "pair u v xx yy zz");
                int u = intAt(1), v = intAt(2);
                double cx = realAt(3), cy = realAt(4), cz = realAt(5);
                h.addPair(u, v, cx, cy, cz);
            } else if (kw == "x" || kw == "y" || kw == "z") {
                expectArgs(2, kw + " q coeff");
                int q = intAt(1);
                double c = realAt(2);
                Axis a = kw == "x"   ? Axis::X
                         : kw == "y" ? Axis::Y
                                     : Axis::Z;
                h.addField(q, a, c);
            } else {
                fail(lineno, "unknown keyword '" + kw + "'");
            }
        } catch (const std::out_of_range &e) {
            fail(lineno, e.what());
        } catch (const std::invalid_argument &e) {
            fail(lineno, e.what());
        }
    }
    if (!have_h)
        throw std::runtime_error(
            "parseHamiltonian: missing 'qubits N' line");
    return h;
}

TwoLocalHamiltonian
parseHamiltonian(const std::string &text)
{
    std::istringstream is(text);
    return parseHamiltonian(is);
}

std::string
formatHamiltonian(const TwoLocalHamiltonian &h)
{
    std::ostringstream os;
    os.precision(17);
    os << "qubits " << h.numQubits() << "\n";
    for (const auto &t : h.pairs())
        os << "pair " << t.u << " " << t.v << " " << t.xx << " "
           << t.yy << " " << t.zz << "\n";
    for (const auto &f : h.fields()) {
        char a = f.axis == Axis::X ? 'x' : f.axis == Axis::Y ? 'y'
                                                             : 'z';
        os << a << " " << f.q << " " << f.coeff << "\n";
    }
    return os.str();
}

} // namespace ham
} // namespace tqan
