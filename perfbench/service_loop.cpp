#include "service_loop.h"

#include <condition_variable>
#include <deque>
#include <exception>
#include <istream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include "harness.h"

namespace perfbench {

namespace {

/** Input side: a blocking line queue.  serve()'s reader thread
 * waits in underflow() until the client pushes a line or closes. */
class LineSource : public std::streambuf
{
  public:
    void push(const std::string &line)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            lines_.push_back(line + "\n");
        }
        cv_.notify_one();
    }

    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        cv_.notify_one();
    }

  protected:
    int_type underflow() override
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !lines_.empty() || closed_; });
        if (lines_.empty())
            return traits_type::eof();
        // cur_ is only touched by the reading thread.
        cur_ = std::move(lines_.front());
        lines_.pop_front();
        setg(&cur_[0], &cur_[0], &cur_[0] + cur_.size());
        return traits_type::to_int_type(cur_[0]);
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::string> lines_;
    bool closed_ = false;
    std::string cur_;
};

/** Output side: collects complete lines, each stamped when its
 * newline was written. */
class LineSink : public std::streambuf
{
  public:
    /** Block until the next response line is complete.
     * @throws std::runtime_error once the writer has finished and no
     *         line is left. */
    std::pair<std::string, Clock::time_point> pop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !done_.empty() || finished_; });
        if (done_.empty())
            throw std::runtime_error(
                "serve() returned before answering every request");
        auto out = std::move(done_.front());
        done_.pop_front();
        return out;
    }

    /** Called once serve() has returned: no more lines will come. */
    void finish()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            finished_ = true;
        }
        cv_.notify_all();
    }

  protected:
    int_type overflow(int_type ch) override
    {
        if (traits_type::eq_int_type(ch, traits_type::eof()))
            return traits_type::not_eof(ch);
        char c = traits_type::to_char_type(ch);
        xsputn(&c, 1);
        return ch;
    }

    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        // partial_ is only touched by serve()'s writer thread.
        for (std::streamsize i = 0; i < n; ++i) {
            if (s[i] != '\n') {
                partial_.push_back(s[i]);
                continue;
            }
            Clock::time_point now = Clock::now();
            {
                std::lock_guard<std::mutex> lock(mu_);
                done_.emplace_back(std::move(partial_), now);
            }
            partial_.clear();
            cv_.notify_one();
        }
        return n;
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::pair<std::string, Clock::time_point>> done_;
    bool finished_ = false;
    std::string partial_;
};

} // namespace

LoopResult
runClosedLoop(tqan::service::CompileService &svc,
              const std::vector<std::string> &lines, int window)
{
    LineSource src;
    LineSink sink;
    std::istream in(&src);
    std::ostream out(&sink);
    std::exception_ptr failure;
    std::thread server([&] {
        try {
            svc.serve(in, out);
        } catch (...) {
            failure = std::current_exception();
        }
        sink.finish();
    });

    const std::size_t n = lines.size();
    LoopResult r;
    r.latencyMs.resize(n);
    r.responses.resize(n);
    std::vector<Clock::time_point> sent(n);
    Clock::time_point t0 = Clock::now();
    std::size_t next = 0;
    try {
        for (std::size_t got = 0; got < n; ++got) {
            while (next < n &&
                   next - got < static_cast<std::size_t>(window)) {
                sent[next] = Clock::now();
                src.push(lines[next]);
                ++next;
            }
            auto [resp, at] = sink.pop();
            r.latencyMs[got] =
                std::chrono::duration<double, std::milli>(at - sent[got])
                    .count();
            r.responses[got] = std::move(resp);
        }
    } catch (...) {
        src.close();
        server.join();
        if (failure)
            std::rethrow_exception(failure);
        throw;
    }
    r.wallMs = msSince(t0);
    src.close();
    server.join();
    if (failure)
        std::rethrow_exception(failure);
    return r;
}

} // namespace perfbench
