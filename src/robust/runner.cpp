#include "robust/runner.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/hash.h"
#include "core/profile.h"
#include "core/thread_pool.h"
#include "robust/checkpoint.h"
#include "robust/fault.h"
#include "robust/io.h"
#include "robust/journal.h"

namespace tqan {
namespace robust {

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> gStop{false};
volatile std::sig_atomic_t gSignalCount = 0;

void
onCampaignSignal(int sig)
{
    if (++gSignalCount >= 2)
        _exit(128 + sig);
    gStop.store(true, std::memory_order_relaxed);
    const char msg[] =
        "\ntqan: interrupted; finishing in-flight shards and "
        "flushing the checkpoint (signal again to force quit)\n";
    // write() is the only async-signal-safe way to say this.
    ssize_t ignored = ::write(2, msg, sizeof msg - 1);
    (void)ignored;
}

struct Attempt
{
    std::uint64_t shard = 0;
    int attempt = 0;
    Clock::time_point readyAt; ///< retry backoff gate
};

/** Longest idle wait of a pool worker, so a stop request (a signal
 * handler cannot notify a condition variable) is noticed promptly. */
constexpr auto kIdlePoll = std::chrono::milliseconds(50);

/** Campaign bookkeeping, local to runCampaign: every worker thread
 * is joined before it returns.  Guarded by mu. */
struct CampaignState
{
    CampaignState(const ShardFn &work, const CampaignOptions &opt)
        : work(work), opt(opt), ckpt(opt.checkpoint)
    {
    }

    std::mutex mu;
    std::condition_variable cv; ///< pool: work, stop, or all resolved

    std::deque<Attempt> queue;
    std::vector<ShardReport> reports;
    std::vector<std::string> payloads;
    std::vector<bool> resolved;
    std::uint64_t unresolved = 0;
    std::uint64_t completedThisRun = 0;
    std::uint64_t retriedCount = 0;
    bool stopDispatch = false;
    /** First error that escaped a pool worker (not a shard's own
     * failure, which costs an attempt); ends the pool and is
     * rethrown once every worker is joined. */
    std::exception_ptr poolError;

    const ShardFn &work;
    const CampaignOptions &opt;
    Checkpoint ckpt;
};

Clock::duration
secondsToDuration(double s)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
}

Clock::time_point
retryReadyAt(const CampaignOptions &opt, int nextAttempt)
{
    double factor = double(1u << std::min(nextAttempt - 1, 10));
    return Clock::now() + secondsToDuration(opt.backoff * factor);
}

void resolveLocked(CampaignState &st, std::uint64_t shard,
                   ShardState state, int attempts,
                   const std::string &err);

/** Stop dispatching: queued shards resolve as Skipped, in-flight
 * attempts are allowed to finish.  Caller holds mu. */
void
beginStopLocked(CampaignState &st)
{
    if (st.stopDispatch)
        return;
    st.stopDispatch = true;
    std::deque<Attempt> q;
    q.swap(st.queue);
    for (const auto &a : q)
        resolveLocked(st, a.shard, ShardState::Skipped, a.attempt,
                      "");
    st.cv.notify_all();
}

void
resolveLocked(CampaignState &st, std::uint64_t shard,
              ShardState state, int attempts, const std::string &err)
{
    if (st.resolved[shard])
        return;
    st.resolved[shard] = true;
    st.reports[shard].state = state;
    st.reports[shard].attempts = attempts;
    st.reports[shard].error = err;
    if (--st.unresolved == 0)
        st.cv.notify_all();
}

/** Failed attempt: requeue with backoff while retries remain, else
 * quarantine.  Caller holds mu. */
void
failAttemptLocked(CampaignState &st, std::uint64_t shard,
                  int attempt, const std::string &err)
{
    if (st.resolved[shard])
        return;
    if (st.stopDispatch) {
        resolveLocked(st, shard, ShardState::Skipped, attempt + 1,
                      err);
        return;
    }
    if (attempt < st.opt.retries) {
        ++st.retriedCount;
        core::profile::count("robust.campaign.retry");
        st.queue.push_back(
            Attempt{shard, attempt + 1,
                    retryReadyAt(st.opt, attempt + 1)});
        st.cv.notify_one();
        return;
    }
    core::profile::count("robust.campaign.quarantine");
    resolveLocked(st, shard, ShardState::Quarantined, attempt + 1,
                  err);
}

/** Successful attempt: journal first (the durability handshake),
 * then mark done.  A journaling failure costs the attempt.  Caller
 * holds mu. */
void
finishAttemptLocked(CampaignState &st, std::uint64_t shard,
                    int attempt, std::string payload)
{
    if (st.resolved[shard])
        return;
    try {
        st.ckpt.append(shard, payload);
    } catch (const std::exception &e) {
        failAttemptLocked(st, shard, attempt, e.what());
        return;
    }
    st.payloads[shard] = std::move(payload);
    ++st.completedThisRun;
    core::profile::count("robust.campaign.done");
    resolveLocked(st, shard, ShardState::Done, attempt + 1, "");
    if (st.opt.stopAfter &&
        st.completedThisRun >= st.opt.stopAfter)
        beginStopLocked(st);
}

/** Pop the first dispatchable attempt; nullopt-style via bool.  When
 * only backoff-gated attempts exist, reports the earliest gate so
 * the caller can sleep exactly that long.  Caller holds mu. */
bool
popReadyLocked(CampaignState &st, Attempt *out, bool *haveFuture,
               Clock::time_point *nextReady)
{
    *haveFuture = false;
    auto now = Clock::now();
    for (auto it = st.queue.begin(); it != st.queue.end(); ++it) {
        if (it->readyAt <= now) {
            *out = *it;
            st.queue.erase(it);
            return true;
        }
        if (!*haveFuture || it->readyAt < *nextReady) {
            *haveFuture = true;
            *nextReady = it->readyAt;
        }
    }
    return false;
}

/** One pool worker: pop, run, record, until every shard resolves.
 * Runs in every forkJoin slot of runPool(). */
void
workerLoop(CampaignState &st)
{
    std::unique_lock<std::mutex> lk(st.mu);
    while (st.unresolved > 0 && !st.poolError) {
        if (campaignStopRequested())
            beginStopLocked(st);
        Attempt a;
        bool haveFuture = false;
        Clock::time_point nextReady;
        if (!popReadyLocked(st, &a, &haveFuture, &nextReady)) {
            // Backoff-gated retries, or other workers' in-flight
            // attempts that may yet requeue.
            auto until = Clock::now() + kIdlePoll;
            st.cv.wait_until(lk, haveFuture
                                     ? std::min(until, nextReady)
                                     : until);
            continue;
        }
        lk.unlock();
        bool ok = false;
        std::string payload, err;
        try {
            if (faultPoint("campaign.shard"))
                throw InjectedFault("campaign.shard");
            payload = st.work(a.shard, a.attempt);
            ok = true;
        } catch (const std::exception &e) {
            err = e.what();
        } catch (...) {
            err = "unknown worker error";
        }
        lk.lock();
        if (ok)
            finishAttemptLocked(st, a.shard, a.attempt,
                                std::move(payload));
        else
            failAttemptLocked(st, a.shard, a.attempt, err);
    }
}

/** One in-process worker, run in a forkJoin slot.  An error outside
 * a shard stops every worker (one of them may have died holding an
 * attempt the rest would wait for) and runPool rethrows it. */
void
poolThread(CampaignState &st)
{
    try {
        workerLoop(st);
    } catch (...) {
        std::lock_guard<std::mutex> lock(st.mu);
        if (!st.poolError)
            st.poolError = std::current_exception();
        st.cv.notify_all();
    }
}

void
runPool(CampaignState &st)
{
    core::ThreadPool::shared().forkJoin(std::max(1, st.opt.workers),
                                        [&st](int) { poolThread(st); });
    if (st.poolError)
        std::rethrow_exception(st.poolError);
}

/** Child side of the process runner: run the shard, write one
 * result frame (u8 status, u32 len, u64 fnv1a64(body), body) to the
 * pipe, and _exit without running any parent-inherited cleanup.
 * status 0 = payload, 1 = error text. */
[[noreturn]] void
runChild(CampaignState &st, const Attempt &a, int wfd)
{
    std::uint8_t status = 0;
    std::string body;
    try {
        // Hit counters were copied by fork, then this child counts
        // alone: an `exit` clause on campaign.shard/fuzz.shard kills
        // every child at its nth own hit.
        if (faultPoint("campaign.shard"))
            throw InjectedFault("campaign.shard");
        body = st.work(a.shard, a.attempt);
    } catch (const std::exception &e) {
        status = 1;
        body = e.what();
    } catch (...) {
        status = 1;
        body = "unknown worker error";
    }
    std::string frame;
    frame += static_cast<char>(status);
    putU32(frame, static_cast<std::uint32_t>(body.size()));
    putU64(frame, core::fnv1a64(body.data(), body.size()));
    frame += body;
    try {
        writeAll(wfd, frame.data(), frame.size());
    } catch (...) {
        _exit(3);
    }
    _exit(0);
}

/** Parse a child result frame.  Returns false when the frame is
 * short, long, or fails its checksum (a crashed child's torn pipe
 * write must read as "died", never as a payload). */
bool
parseFrame(const std::string &buf, std::uint8_t *status,
           std::string *body)
{
    if (buf.size() < 13)
        return false;
    const unsigned char *p =
        reinterpret_cast<const unsigned char *>(buf.data());
    std::uint32_t len = getU32(p + 1);
    if (buf.size() != std::size_t(13) + len)
        return false;
    if (core::fnv1a64(buf.data() + 13, len) != getU64(p + 5))
        return false;
    *status = p[0];
    body->assign(buf, 13, len);
    return true;
}

void
runProcessMode(CampaignState &st)
{
    struct Kid
    {
        pid_t pid = -1;
        int fd = -1;
        std::string buf;
        Clock::time_point start;
        std::uint64_t shard = 0;
        int attempt = 0;
        bool eof = false;
        bool exited = false;
        bool deadlineKilled = false;
        int status = 0;
    };
    std::vector<Kid> kids;
    const int maxKids = std::max(1, st.opt.processes);
    const bool hasDeadline = st.opt.shardDeadline > 0;
    const auto deadline = secondsToDuration(st.opt.shardDeadline);

    std::unique_lock<std::mutex> lk(st.mu);
    while (st.unresolved > 0) {
        if (campaignStopRequested())
            beginStopLocked(st);

        // Spawn up to the concurrency cap.  The parent is
        // single-threaded here, so forking while holding mu is safe:
        // no other thread can have left any lock held in the child,
        // and the child never touches st.mu.
        for (;;) {
            if (st.stopDispatch ||
                static_cast<int>(kids.size()) >= maxKids)
                break;
            Attempt a;
            bool haveFuture = false;
            Clock::time_point nextReady;
            if (!popReadyLocked(st, &a, &haveFuture, &nextReady))
                break;
            int p[2];
            if (::pipe(p) != 0) {
                failAttemptLocked(st, a.shard, a.attempt,
                                  "pipe() failed");
                continue;
            }
            pid_t pid = ::fork();
            if (pid < 0) {
                ::close(p[0]);
                ::close(p[1]);
                failAttemptLocked(st, a.shard, a.attempt,
                                  "fork() failed");
                continue;
            }
            if (pid == 0) {
                ::close(p[0]);
                runChild(st, a, p[1]); // never returns
            }
            ::close(p[1]);
            // Non-blocking read end: the drain loop below must never
            // stall the (single-threaded) parent on a child that has
            // not written yet — that would freeze the deadline check
            // for every OTHER child too.
            ::fcntl(p[0], F_SETFL, O_NONBLOCK);
            Kid k;
            k.pid = pid;
            k.fd = p[0];
            k.start = Clock::now();
            k.shard = a.shard;
            k.attempt = a.attempt;
            kids.push_back(std::move(k));
            core::profile::count("robust.campaign.fork");
        }

        if (kids.empty()) {
            if (st.queue.empty())
                break; // nothing running, nothing left
            // Only backoff-gated retries remain.
            lk.unlock();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
            lk.lock();
            continue;
        }

        lk.unlock();
        // Drain pipes while children run: a shard payload can exceed
        // the pipe buffer, and a child blocked on write() would look
        // hung to the deadline check.
        std::vector<struct pollfd> fds;
        for (const auto &k : kids)
            if (!k.eof)
                fds.push_back({k.fd, POLLIN, 0});
        if (!fds.empty())
            ::poll(fds.data(),
                   static_cast<nfds_t>(fds.size()), 20);
        for (auto &k : kids) {
            if (k.eof)
                continue;
            char buf[1 << 16];
            for (;;) {
                ssize_t n = ::read(k.fd, buf, sizeof buf);
                if (n > 0) {
                    k.buf.append(buf,
                                 static_cast<std::size_t>(n));
                    continue;
                }
                if (n == 0)
                    k.eof = true;
                else if (errno == EINTR)
                    continue;
                // EAGAIN: drained for now, child still running.
                break;
            }
        }
        for (auto &k : kids) {
            if (k.exited)
                continue;
            int status = 0;
            pid_t r = ::waitpid(k.pid, &status, WNOHANG);
            if (r == k.pid) {
                k.exited = true;
                k.status = status;
            }
        }
        auto now = Clock::now();
        if (hasDeadline)
            for (auto &k : kids)
                if (!k.exited && !k.deadlineKilled &&
                    now - k.start > deadline) {
                    ::kill(k.pid, SIGKILL);
                    k.deadlineKilled = true;
                    core::profile::count(
                        "robust.campaign.deadline");
                }
        lk.lock();

        for (std::size_t i = 0; i < kids.size();) {
            Kid &k = kids[i];
            if (!(k.exited && k.eof)) {
                ++i;
                continue;
            }
            std::uint8_t status = 0;
            std::string body;
            bool framed = parseFrame(k.buf, &status, &body);
            if (k.deadlineKilled) {
                failAttemptLocked(st, k.shard, k.attempt,
                                  "shard deadline exceeded");
            } else if (framed && status == 0 &&
                       WIFEXITED(k.status) &&
                       WEXITSTATUS(k.status) == 0) {
                finishAttemptLocked(st, k.shard, k.attempt,
                                    std::move(body));
            } else if (framed && status == 1) {
                failAttemptLocked(st, k.shard, k.attempt, body);
            } else {
                std::string why =
                    WIFSIGNALED(k.status)
                        ? "worker killed by signal " +
                              std::to_string(WTERMSIG(k.status))
                        : "worker died (exit " +
                              std::to_string(
                                  WIFEXITED(k.status)
                                      ? WEXITSTATUS(k.status)
                                      : -1) +
                              ")";
                failAttemptLocked(st, k.shard, k.attempt, why);
            }
            ::close(k.fd);
            kids.erase(kids.begin() +
                       static_cast<std::ptrdiff_t>(i));
        }
    }
    lk.unlock();
    for (auto &k : kids) { // interrupted with children still up
        ::kill(k.pid, SIGKILL);
        ::waitpid(k.pid, nullptr, 0);
        ::close(k.fd);
    }
}

} // namespace

std::string
CampaignResult::summary() const
{
    std::string s = std::to_string(payloads.size()) + " shards: " +
                    std::to_string(completed) + " done, " +
                    std::to_string(restored) + " restored, " +
                    std::to_string(quarantined) + " quarantined, " +
                    std::to_string(skipped) + " skipped, " +
                    std::to_string(retried) + " retries";
    if (interrupted)
        s += " [interrupted]";
    return s;
}

CampaignResult
runCampaign(std::uint64_t shards, const ShardFn &work,
            const CampaignOptions &opt)
{
    if (opt.shardDeadline > 0 && opt.processes <= 0)
        throw std::invalid_argument(
            "runCampaign: a shard deadline needs process mode "
            "(processes > 0); a hung thread cannot be killed");
    core::profile::ScopedTimer timer("robust.campaign");
    CampaignState st(work, opt);
    st.reports.resize(shards);
    st.payloads.resize(shards);
    st.resolved.assign(shards, false);
    for (std::uint64_t i = 0; i < shards; ++i)
        st.reports[i].shard = i;
    st.unresolved = shards;

    Checkpoint &ckpt = st.ckpt;
    if (ckpt.enabled()) {
        auto meta = ckpt.entries().find(Checkpoint::kMetaShard);
        if (opt.resume) {
            if (meta != ckpt.entries().end() &&
                meta->second != opt.configTag)
                throw std::runtime_error(
                    "checkpoint " + ckpt.path() +
                    " belongs to a different campaign (tag '" +
                    meta->second + "' != '" + opt.configTag + "')");
        } else if (!ckpt.entries().empty()) {
            // Fresh campaign over an old journal: start over rather
            // than silently merging two runs' shards.
            ckpt.reset();
            meta = ckpt.entries().end();
        }
        if (meta == ckpt.entries().end())
            ckpt.append(Checkpoint::kMetaShard, opt.configTag);

        if (opt.resume)
            for (const auto &kv : ckpt.entries()) {
                if (kv.first == Checkpoint::kMetaShard ||
                    kv.first >= shards)
                    continue;
                st.payloads[kv.first] = kv.second;
                resolveLocked(st, kv.first, ShardState::Restored, 0,
                              "");
                core::profile::count("robust.campaign.restored");
            }
    }

    {
        auto now = Clock::now();
        for (std::uint64_t i = 0; i < shards; ++i)
            if (!st.resolved[i])
                st.queue.push_back(Attempt{i, 0, now});
    }

    if (st.unresolved > 0) {
        if (opt.processes > 0)
            runProcessMode(st);
        else
            runPool(st);
    }

    CampaignResult r;
    r.payloads = std::move(st.payloads);
    r.shards = std::move(st.reports);
    r.retried = st.retriedCount;
    for (const auto &rep : r.shards)
        switch (rep.state) {
        case ShardState::Done:
            ++r.completed;
            break;
        case ShardState::Restored:
            ++r.restored;
            break;
        case ShardState::Quarantined:
            ++r.quarantined;
            break;
        case ShardState::Skipped:
            ++r.skipped;
            break;
        }
    r.interrupted = r.skipped > 0;
    return r;
}

void
requestCampaignStop()
{
    gStop.store(true, std::memory_order_relaxed);
}

bool
campaignStopRequested()
{
    return gStop.load(std::memory_order_relaxed);
}

void
resetCampaignStop()
{
    gStop.store(false, std::memory_order_relaxed);
    gSignalCount = 0;
}

void
installCampaignSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onCampaignSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: interrupt blocking reads
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

} // namespace robust
} // namespace tqan
