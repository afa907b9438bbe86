/**
 * @file
 * Unit tests of the pass-pipeline backbone: PassManager ordering and
 * timing, CompileContext distance memoization, and the standard
 * pipeline TqanCompiler assembles.
 */

#include <gtest/gtest.h>

#include "core/compiler.h"
#include "core/pass.h"
#include "core/passes.h"
#include "device/devices.h"
#include "ham/models.h"
#include "ham/trotter.h"

using namespace tqan;
using namespace tqan::core;

namespace {

/** Records its execution into a shared log. */
class RecordingPass : public Pass
{
  public:
    RecordingPass(std::string name, std::vector<std::string> *log)
        : name_(std::move(name)), log_(log)
    {
    }
    std::string name() const override { return name_; }
    void run(CompileContext &) const override
    {
        log_->push_back(name_);
    }

  private:
    std::string name_;
    std::vector<std::string> *log_;
};

std::unique_ptr<Pass>
recording(const std::string &name, std::vector<std::string> *log)
{
    return std::unique_ptr<Pass>(new RecordingPass(name, log));
}

} // namespace

TEST(PassManager, RunsPassesInInsertionOrderAndTimesEach)
{
    std::vector<std::string> log;
    PassManager pm;
    pm.add(recording("alpha", &log))
        .add(recording("beta", &log))
        .add(recording("gamma", &log));
    EXPECT_EQ(pm.passNames(),
              (std::vector<std::string>{"alpha", "beta", "gamma"}));

    CompileContext ctx(qcir::Circuit(2), device::line(2), 1);
    auto times = pm.run(ctx);

    EXPECT_EQ(log, (std::vector<std::string>{"alpha", "beta",
                                             "gamma"}));
    ASSERT_EQ(times.size(), 3u);
    for (size_t i = 0; i < times.size(); ++i) {
        EXPECT_EQ(times[i].pass, log[i]);
        EXPECT_GE(times[i].seconds, 0.0);
    }
}

TEST(PassManager, RejectsNullPass)
{
    PassManager pm;
    EXPECT_THROW(pm.add(nullptr), std::invalid_argument);
}

TEST(PassManager, PassSecondsSumsMatchingEntries)
{
    std::vector<PassTiming> times{{"mapping", 1.0},
                                  {"routing", 2.0},
                                  {"mapping", 0.5}};
    EXPECT_DOUBLE_EQ(passSeconds(times, "mapping"), 1.5);
    EXPECT_DOUBLE_EQ(passSeconds(times, "routing"), 2.0);
    EXPECT_DOUBLE_EQ(passSeconds(times, "scheduling"), 0.0);
}

TEST(CompileContext, DistancesAreMemoizedHopCounts)
{
    device::Topology topo = device::line(5);
    CompileContext ctx(qcir::Circuit(3), topo, 9);
    const auto &d1 = ctx.distances();
    const auto &d2 = ctx.distances();
    EXPECT_EQ(&d1, &d2);  // memoized, not recomputed
    for (int p = 0; p < 5; ++p)
        for (int q = 0; q < 5; ++q)
            EXPECT_DOUBLE_EQ(d1[p][q], topo.dist(p, q));
}

TEST(CompileContext, DistancesUseNoiseMapWhenAttached)
{
    device::Topology topo = device::montreal27();
    std::mt19937_64 rng(11);
    auto nm = std::make_shared<device::NoiseMap>(
        device::NoiseMap::synthetic(topo, rng));

    CompileContext ctx(qcir::Circuit(4), topo, 9);
    ctx.noiseMap = nm;
    ctx.noiseLambda = 1.5;
    EXPECT_EQ(ctx.distances(), nm->noiseAwareDistances(1.5));
}

TEST(Compiler, StandardPipelineShape)
{
    CompilerOptions opt;
    TqanCompiler comp(device::line(4), opt);
    EXPECT_EQ(comp.buildPipeline().passNames(),
              (std::vector<std::string>{"unify", "mapping", "routing",
                                        "scheduling"}));

    CompilerOptions bare = opt;
    bare.unifyCircuit = false;
    TqanCompiler comp2(device::line(4), bare);
    EXPECT_EQ(comp2.buildPipeline().passNames(),
              (std::vector<std::string>{"mapping", "routing",
                                        "scheduling"}));
}

TEST(Compiler, CompileReportsPerPassTimes)
{
    std::mt19937_64 rng(31);
    auto h = ham::nnnHeisenberg(8, rng);
    CompilerOptions opt;
    opt.seed = 32;
    TqanCompiler comp(device::grid(3, 3), opt);
    auto res = comp.compile(ham::trotterStep(h, 1.0));

    ASSERT_EQ(res.passTimes.size(), 4u);
    EXPECT_EQ(res.passTimes[0].pass, "unify");
    EXPECT_EQ(res.passTimes[3].pass, "scheduling");
    EXPECT_DOUBLE_EQ(res.mappingSeconds,
                     passSeconds(res.passTimes, "mapping"));
    EXPECT_DOUBLE_EQ(res.routingSeconds,
                     passSeconds(res.passTimes, "routing"));
    EXPECT_DOUBLE_EQ(res.schedulingSeconds,
                     passSeconds(res.passTimes, "scheduling"));
}

TEST(Compiler, UnknownMapperNameThrowsListingRegistered)
{
    std::mt19937_64 rng(33);
    auto h = ham::nnnHeisenberg(4, rng);
    CompilerOptions opt;
    opt.mapper = "bogus";
    TqanCompiler comp(device::line(4), opt);
    try {
        comp.compile(ham::trotterStep(h, 1.0));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown mapper 'bogus'"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("tabu"), std::string::npos) << msg;
    }
}
