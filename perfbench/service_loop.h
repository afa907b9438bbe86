/**
 * @file
 * Drive CompileService::serve() the way `tqand` is driven: request
 * lines go into its input stream and response lines come out of its
 * output stream, as a closed loop with a fixed window of outstanding
 * requests.
 */

#ifndef TQAN_PERFBENCH_SERVICE_LOOP_H
#define TQAN_PERFBENCH_SERVICE_LOOP_H

#include <string>
#include <vector>

#include "service/service.h"

namespace perfbench {

struct LoopResult
{
    /** Send-to-response time of request i, ms (responses arrive in
     * request order, so i is also the response index). */
    std::vector<double> latencyMs;
    std::vector<std::string> responses;
    double wallMs = 0.0;  ///< first send to last response
};

/** Send `lines` through svc.serve(), keeping at most `window`
 * requests outstanding; returns when every response has arrived and
 * serve() has drained and returned.
 * @throws what serve() throws, or std::runtime_error if it returns
 *         before answering every request. */
LoopResult runClosedLoop(tqan::service::CompileService &svc,
                         const std::vector<std::string> &lines,
                         int window);

} // namespace perfbench

#endif // TQAN_PERFBENCH_SERVICE_LOOP_H
