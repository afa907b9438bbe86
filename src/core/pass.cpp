#include "core/pass.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/profile.h"

namespace tqan {
namespace core {

const linalg::FlatMatrix &
CompileContext::distances() const
{
    if (!noiseMap)
        return topo->hopDistances();
    if (!noiseDist_)
        noiseDist_ = noiseMap->noiseAwareDistances(noiseLambda);
    return *noiseDist_;
}

double
passSeconds(const std::vector<PassTiming> &times,
            const std::string &pass)
{
    double s = 0.0;
    for (const auto &t : times)
        if (t.pass == pass)
            s += t.seconds;
    return s;
}

PassManager &
PassManager::add(std::unique_ptr<Pass> pass)
{
    if (!pass)
        throw std::invalid_argument("PassManager::add: null pass");
    passes_.push_back(std::move(pass));
    return *this;
}

std::vector<std::string>
PassManager::passNames() const
{
    std::vector<std::string> names;
    names.reserve(passes_.size());
    for (const auto &p : passes_)
        names.push_back(p->name());
    return names;
}

std::vector<PassTiming>
PassManager::run(CompileContext &ctx) const
{
    using Clock = std::chrono::steady_clock;
    std::vector<PassTiming> times;
    times.reserve(passes_.size());
    for (const auto &p : passes_) {
        auto t0 = Clock::now();
        p->run(ctx);
        double seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        times.push_back({p->name(), seconds});
        if (profile::enabled())
            profile::record("pass." + p->name(), seconds);
    }
    return times;
}

} // namespace core
} // namespace tqan
