/**
 * @file
 * Cross-check of the harness against the existing tool: at seed 0
 * the `paper` workload's per-compile swaps and depth2q must equal the
 * 2qan rows of `tqan-sweep --preset table1_table2`.  The harness goes
 * through Hamiltonian text; the sweep compiles the generated model
 * directly, so this also pins the text round trip.
 *
 * Exit status 0 when every row matches, 1 otherwise.
 */

#include <cstdio>
#include <map>
#include <string>

#include "core/batch.h"
#include "core/sweep.h"
#include "harness.h"

using namespace tqan;

int
main()
{
    core::SweepSpec spec = core::sweepPreset("table1_table2");
    // Compile seeds fold in the backend name, not its position in the
    // list, so the 2qan rows are the same without the baselines.
    spec.backends = {"2qan"};
    core::BatchCompiler bc(core::BatchOptions{2});
    std::map<std::string, core::SweepRow> sweep;
    for (const core::SweepRow &r : core::runSweep(spec, bc))
        sweep[r.benchmark + "/" + r.device + "/" + r.backend + "/n" +
              std::to_string(r.nqubits) + "/i" +
              std::to_string(r.instance)] = r;

    std::vector<perfbench::CompileInput> inputs =
        perfbench::paperWorkload(0);
    int bad = 0;
    if (inputs.size() != sweep.size()) {
        std::printf("FAIL: %zu harness compiles, %zu sweep rows\n",
                    inputs.size(), sweep.size());
        ++bad;
    }
    for (const perfbench::CompileInput &in : inputs) {
        auto it = sweep.find(in.label);
        if (it == sweep.end() || !it->second.ok()) {
            std::printf("FAIL: %s: no ok sweep row\n", in.label.c_str());
            ++bad;
            continue;
        }
        perfbench::CompileOutput out =
            perfbench::compileToQasm(in, nullptr);
        const core::CompilationMetrics &m = it->second.metrics;
        if (out.metrics.swaps != m.swaps ||
            out.metrics.depth2q != m.depth2q) {
            std::printf("FAIL: %s: harness swaps %d depth2q %d, sweep "
                        "swaps %d depth2q %d\n",
                        in.label.c_str(), out.metrics.swaps,
                        out.metrics.depth2q, m.swaps, m.depth2q);
            ++bad;
        }
    }
    std::printf("%s: %zu paper compiles checked against "
                "table1_table2, %d mismatches\n",
                bad ? "FAIL" : "PASS", inputs.size(), bad);
    return bad ? 1 : 0;
}
