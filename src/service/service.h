/**
 * @file
 * Compilation as a service: a long-running CompileService in front
 * of the batch compiler (ROADMAP "daemon mode + content-addressed
 * compile cache"; the `tqand` tool is the stdin/stdout JSONL front
 * end).
 *
 * Requests are one JSON object per line (strict parse, see
 * service/json.h).  A compile request carries the same inputs as a
 * `tqanc` invocation — Hamiltonian text, device spec, gate set,
 * backend, options, seed — and its response carries the same
 * metrics plus the decomposed OpenQASM, so a service answer is
 * bit-identical to what `tqanc` prints for the same inputs (the
 * integration tests pin this).
 *
 *   {"type":"compile","id":"r1","ham":"qubits 2\npair 0 1 0 0 0.7\n",
 *    "device":"line:5","backend":"2qan","seed":7}
 *   -> {"id":"r1","status":"ok","cache":"miss","key":"6b3f...",
 *       "backend":"2qan",...,"qasm":"OPENQASM 2.0;..."}
 *
 * Every result is cached under the FNV-1a hash of the CANONICALIZED
 * request (canonicalRequest()): resolved topology structure, gate
 * set, backend, exact time/seed bit patterns, and every
 * CompilerOptions field — two requests differing in any option can
 * never share a key, and a repeat request is served from memory in
 * microseconds instead of re-running tabu search.  With a cache
 * path the store persists across restarts (service/cache.h; corrupt
 * or truncated tails are verified away on open, never served).
 *
 * A compile request is admitted in two steps.  Key (every request):
 * resolve the device topology (memoized per device spec), validate
 * the gate set and backend, synthesize the noise map when
 * noise_aware is set, and hash the canonical form, which carries the
 * RAW Hamiltonian text.  Prepare (misses only): parse the
 * Hamiltonian and build its Trotter step.  A hit is answered from
 * the key alone; only successful compiles are ever inserted, so a
 * key can only hit on text this build's parser once accepted.
 *
 * serve() is the daemon loop: a bounded admission queue (overflow
 * is rejected immediately), per-request deadlines (a request that
 * waited past its deadline is expired, not compiled), cache hits
 * answered at admission time, misses compiled in arrival order as
 * BatchCompiler batches on the shared pool, responses always in
 * request order, graceful drain on EOF or a {"type":"shutdown"}
 * request.
 * Hit rate, queue depth and p50/p99 latency are served by a
 * {"type":"stats"} request and mirrored into core/profile scopes
 * (service.*).
 */

#ifndef TQAN_SERVICE_SERVICE_H
#define TQAN_SERVICE_SERVICE_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/batch.h"
#include "device/devices.h"
#include "ham/hamiltonian.h"
#include "qcir/circuit.h"
#include "service/cache.h"
#include "service/json.h"

namespace tqan {
namespace service {

struct ServiceOptions
{
    /** Most misses compiled at once (the BatchCompiler's `jobs`,
     * capping its slots on the one shared pool); also the
     * per-dispatch batch size. */
    int jobs = 1;
    /** Persist the cache here ("" = in-memory only). */
    std::string cachePath;
    /** Admission bound of serve()'s pending-compile queue; requests
     * beyond it are rejected immediately (status "rejected"). */
    std::size_t maxQueue = 64;
    /** Deadline applied to requests that set none (0 = unlimited).
     * A request still queued past its deadline is answered
     * "expired" instead of compiled. */
    double defaultDeadlineMs = 0.0;
};

/** One decoded compile request (parse + validation in
 * parseCompileRequest; the CLI-equivalent defaults match tqanc). */
struct CompileRequest
{
    std::string id;
    std::string ham;                 ///< Hamiltonian text (required)
    std::string device = "montreal"; ///< device name or custom:N:e-e
    std::string gateset = "cnot";
    std::string backend = "2qan";
    double time = 1.0;
    /** Synthesize a calibration like `tqanc --noise-aware`. */
    bool noiseAware = false;
    /** Queue deadline in ms; 0 = use the service default. */
    double deadlineMs = 0.0;
    core::CompilerOptions options;
};

/** Snapshot of the service counters (the --stats payload). */
struct ServiceStats
{
    std::uint64_t requests = 0;  ///< every request line seen
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    ///< compiles actually run
    std::uint64_t errors = 0;
    std::uint64_t rejected = 0;  ///< admission-queue overflow
    std::uint64_t expired = 0;   ///< deadline passed while queued
    std::size_t queueDepth = 0;  ///< pending compiles right now
    std::size_t cacheEntries = 0;
    /** Process-wide transient-I/O retries (robust::ioRetries():
     * cache/checkpoint loads riding the retrying reader). */
    std::uint64_t ioRetries = 0;
    double p50Ms = 0.0;  ///< over completed compile requests
    double p99Ms = 0.0;

    double hitRate() const
    {
        std::uint64_t n = hits + misses;
        return n ? static_cast<double>(hits) / n : 0.0;
    }
};

class CompileService
{
  public:
    explicit CompileService(ServiceOptions opt = ServiceOptions());
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /**
     * Serve one request line synchronously and return the response
     * line (no trailing newline).  Never throws: malformed input
     * becomes a {"status":"error"} response.  Thread-safe.
     */
    std::string handleLine(const std::string &line);

    /**
     * The daemon loop: read JSONL requests from `in`, write JSONL
     * responses to `out` in request order, until EOF or a shutdown
     * request; drains the queue before returning.  Cache hits,
     * stats, rejections and parse errors are answered at admission
     * time; misses flow through the bounded queue into
     * BatchCompiler batches.
     */
    void serve(std::istream &in, std::ostream &out);

    ServiceStats stats() const;
    const ServiceOptions &options() const { return opt_; }
    /** What the cache open found (tqand reports dropped tails). */
    const CompileCache::LoadInfo &cacheLoadInfo() const
    {
        return cache_.loadInfo();
    }

    /** @name Content addressing (exposed for the key tests).
     * canonicalRequest() folds in the resolved topology structure
     * and EVERY CompilerOptions field; it never reads the hop
     * distances, so keying a request builds no distance matrix.
     * cacheKey() is its fnv1a64. @{ */
    static std::string canonicalRequest(
        const CompileRequest &req, const device::Topology &topo);
    static std::uint64_t cacheKey(const CompileRequest &req,
                                  const device::Topology &topo);
    /** @} */

    /** Decode + validate a parsed request object (strict: unknown
     * fields, wrong types, and junk-tailed numbers are errors).
     * @throws std::invalid_argument */
    static CompileRequest parseCompileRequest(const JsonObject &obj);

  private:
    struct Prepared;   // a keyed (and, on a miss, prepared) request
    struct Admission;  // what admit() made of one request line
    struct Slot;       // one in-order response slot of serve()

    /** The admission sequence handleLine() and serve() share: JSON
     * parse, reader fault point, type switch, parseCompileRequest,
     * key, cache lookup, and prepare on a miss.  Answers everything
     * but a miss; never throws. */
    Admission admit(const std::string &line);
    /** Key step: topology, gate set, backend, noise map, canonical
     * form and key.  @throws std::invalid_argument */
    std::unique_ptr<Prepared> keyRequest(CompileRequest req);
    /** Prepare step (misses only): Hamiltonian parse + Trotter step.
     * @throws std::exception on a malformed Hamiltonian */
    static void prepare(Prepared &p);
    /** The topology of a device spec, memoized (bounded) so repeat
     * requests share one Topology and its hop matrix.
     * @throws std::invalid_argument */
    std::shared_ptr<const device::Topology>
    topology(const std::string &spec);
    /** Cold path: compile through the pool, build the payload JSON
     * fragment.  @throws on backend errors. */
    std::string compilePayload(const Prepared &p) const;
    /** The BatchJob of a prepared request (pointers into `p`). */
    core::BatchJob makeBatchJob(const Prepared &p) const;
    /** Payload JSON fragment from a finished batch result.
     * @throws on a result carrying an error. */
    std::string payloadFromResult(const Prepared &p,
                                  const core::BatchJobResult &r) const;
    std::string okResponse(const std::string &id, bool hit,
                           std::uint64_t key,
                           const std::string &payload) const;
    std::string errorResponse(const std::string &id,
                              const std::string &status,
                              const std::string &what);
    std::string statsResponse(const std::string &id) const;
    void recordLatency(double seconds, bool hit);

    ServiceOptions opt_;
    core::BatchCompiler bc_;
    CompileCache cache_;

    mutable std::mutex statsMu_;
    ServiceStats st_;
    std::vector<double> latMs_;  ///< ring of recent latencies
    std::size_t latNext_ = 0;

    std::mutex topoMu_;
    std::unordered_map<std::string,
                       std::shared_ptr<const device::Topology>>
        topos_;
};

} // namespace service
} // namespace tqan

#endif // TQAN_SERVICE_SERVICE_H
