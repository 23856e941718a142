#include "runtime/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <semaphore>
#include <thread>
#include <vector>

namespace fabnet {
namespace runtime {

namespace {

/** True while the current thread is executing parallelFor chunks. */
thread_local bool in_parallel_region = false;

/** Token installed by the innermost CancelScope on this thread;
 *  regions started by this thread poll it between grain chunks. */
thread_local const CancelToken *tl_cancel_token = nullptr;

std::size_t
defaultThreads()
{
    const char *env = std::getenv("FABNET_NUM_THREADS");
    if (env && *env) {
        if (const std::size_t n = parseNumThreads(env))
            return n;
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            std::fprintf(stderr,
                         "fabnet: invalid FABNET_NUM_THREADS '%s' "
                         "(want 1..%zu); using hardware concurrency\n",
                         env, kMaxEnvThreads);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/**
 * Persistent pool. Each worker sleeps on its own semaphore, so a
 * region wakes exactly as many helpers as it has chunks to spare -
 * small fan-outs do not pay for idle workers. The region is a chunk
 * queue drained through an atomic cursor; the calling thread
 * participates, so a pool of size T has T-1 spawned workers.
 */
class ThreadPool
{
  public:
    static ThreadPool &
    instance()
    {
        static ThreadPool pool;
        return pool;
    }

    std::size_t threads() const
    {
        return threads_.load(std::memory_order_relaxed);
    }

    void
    resize(std::size_t n)
    {
        if (n == 0)
            n = defaultThreads();
        std::lock_guard<std::mutex> resize_lock(resize_mutex_);
        if (n == threads_)
            return;
        stopWorkers();
        threads_ = n;
        startWorkers();
    }

    void
    run(std::size_t begin, std::size_t end, std::size_t grain,
        const std::function<void(std::size_t, std::size_t)> &body)
    {
        // One region at a time; a second application thread arriving
        // while the pool is busy (or resizing) runs its region inline
        // instead of sleeping on the lock - same results, and N
        // request threads keep N-way progress.
        std::unique_lock<std::mutex> resize_lock(resize_mutex_,
                                                 std::try_to_lock);
        if (!resize_lock.owns_lock()) {
            for (std::size_t b = begin; b < end; b += grain) {
                checkCancelled();
                body(b, std::min(b + grain, end));
            }
            return;
        }

        region_body_ = &body;
        region_end_ = end;
        region_grain_ = grain;
        region_cursor_.store(begin, std::memory_order_relaxed);
        region_error_ = nullptr;
        // The starting thread's cancellation token governs the whole
        // region: workers poll it between chunk claims.
        region_cancel_ = tl_cancel_token;

        const std::size_t chunks = (end - begin + grain - 1) / grain;
        const std::size_t helpers =
            std::min(workers_.size(), chunks > 0 ? chunks - 1 : 0);
        pending_.store(helpers, std::memory_order_release);
        for (std::size_t i = 0; i < helpers; ++i)
            workers_[i]->wake.release();

        drainChunks();

        // Wait for the woken helpers to finish their claimed chunks.
        if (helpers > 0) {
            std::unique_lock<std::mutex> lk(done_mutex_);
            done_cv_.wait(lk, [this] {
                return pending_.load(std::memory_order_acquire) == 0;
            });
        }
        region_body_ = nullptr;
        if (region_error_)
            std::rethrow_exception(region_error_);
    }

  private:
    struct Worker
    {
        std::binary_semaphore wake{0};
        std::thread thread;
    };

    ThreadPool() : threads_(defaultThreads()) { startWorkers(); }

    ~ThreadPool() { stopWorkers(); }

    void
    startWorkers()
    {
        stop_ = false;
        const std::size_t helpers = threads_ > 0 ? threads_ - 1 : 0;
        workers_.reserve(helpers);
        for (std::size_t i = 0; i < helpers; ++i) {
            workers_.push_back(std::make_unique<Worker>());
            workers_.back()->thread =
                std::thread([this, i] { workerLoop(i); });
        }
    }

    void
    stopWorkers()
    {
        stop_ = true;
        for (auto &w : workers_)
            w->wake.release();
        for (auto &w : workers_)
            w->thread.join();
        workers_.clear();
    }

    void
    workerLoop(std::size_t index)
    {
        for (;;) {
            workers_[index]->wake.acquire();
            if (stop_)
                return;
            drainChunks();
            if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                std::lock_guard<std::mutex> lk(done_mutex_);
                done_cv_.notify_all();
            }
        }
    }

    void
    drainChunks()
    {
        const auto *body = region_body_;
        if (!body)
            return;
        const CancelToken *cancel = region_cancel_;
        in_parallel_region = true;
        for (;;) {
            // Cancellation check per grain chunk: stop claiming work
            // once the region's token fires; chunks already claimed
            // complete, and the starting thread rethrows Cancelled.
            if (cancel && cancel->cancelled()) {
                std::lock_guard<std::mutex> lk(error_mutex_);
                if (!region_error_)
                    region_error_ =
                        std::make_exception_ptr(Cancelled{});
                break;
            }
            const std::size_t chunk_begin = region_cursor_.fetch_add(
                region_grain_, std::memory_order_relaxed);
            if (chunk_begin >= region_end_)
                break;
            const std::size_t chunk_end =
                std::min(chunk_begin + region_grain_, region_end_);
            try {
                (*body)(chunk_begin, chunk_end);
            } catch (...) {
                std::lock_guard<std::mutex> lk(error_mutex_);
                if (!region_error_)
                    region_error_ = std::current_exception();
            }
        }
        in_parallel_region = false;
    }

    // Relaxed-atomic: read unlocked on the parallelFor fast path while
    // setNumThreads writes it under resize_mutex_.
    std::atomic<std::size_t> threads_{1};
    std::vector<std::unique_ptr<Worker>> workers_;
    std::atomic<bool> stop_{false};

    std::mutex resize_mutex_; // serialises run()/resize()

    std::mutex done_mutex_;
    std::condition_variable done_cv_;
    std::atomic<std::size_t> pending_{0};

    const std::function<void(std::size_t, std::size_t)> *region_body_ =
        nullptr;
    std::size_t region_end_ = 0, region_grain_ = 1;
    std::atomic<std::size_t> region_cursor_{0};
    const CancelToken *region_cancel_ = nullptr;
    std::mutex error_mutex_;
    std::exception_ptr region_error_;
};

} // namespace

std::size_t
parseNumThreads(const char *s)
{
    std::size_t n = 0;
    for (const char *p = s; *p; ++p) {
        if (*p < '0' || *p > '9')
            return 0;
        n = n * 10 + static_cast<std::size_t>(*p - '0');
        if (n > kMaxEnvThreads)
            return 0; // bail before the accumulator can overflow
    }
    return n;
}

std::size_t
numThreads()
{
    return ThreadPool::instance().threads();
}

void
setNumThreads(std::size_t n)
{
    ThreadPool::instance().resize(n);
}

void
parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
            const std::function<void(std::size_t, std::size_t)> &body)
{
    if (begin >= end)
        return;
    if (grain == 0)
        grain = 1;
    ThreadPool &pool = ThreadPool::instance();
    // Serial fast path: one thread, a nested region, or a range that
    // fits in a single chunk - no synchronisation, identical results.
    // Cancellation polls per grain chunk, exactly like the pool path.
    if (pool.threads() == 1 || in_parallel_region ||
        end - begin <= grain) {
        for (std::size_t b = begin; b < end; b += grain) {
            if (!in_parallel_region)
                checkCancelled();
            body(b, std::min(b + grain, end));
        }
        return;
    }
    pool.run(begin, end, grain, body);
}

CancelScope::CancelScope(const CancelToken &token)
    : previous_(tl_cancel_token)
{
    tl_cancel_token = &token;
}

CancelScope::~CancelScope() { tl_cancel_token = previous_; }

void
checkCancelled()
{
    if (tl_cancel_token && tl_cancel_token->cancelled())
        throw Cancelled{};
}

} // namespace runtime
} // namespace fabnet
