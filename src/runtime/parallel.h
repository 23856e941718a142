/**
 * @file parallel.h
 * Shared parallel runtime: a persistent thread pool plus a
 * deterministic parallelFor that every host-side hot path (GEMM,
 * batched butterfly, attention) is built on.
 *
 * ## Thread count
 * The pool size is read once from the FABNET_NUM_THREADS environment
 * variable (falling back to std::thread::hardware_concurrency) and can
 * be changed at runtime with setNumThreads(). Only a whole decimal in
 * [1, kMaxEnvThreads] is honoured; anything else falls back with one
 * stderr line naming the rejected value. A value of 1 runs every
 * parallelFor inline on the calling thread with zero synchronisation
 * overhead.
 *
 * ## Determinism guarantee
 * parallelFor(begin, end, grain, body) partitions [begin, end) into
 * fixed chunks of at most `grain` indices. Chunks are claimed
 * dynamically by workers, but every index is executed exactly once and
 * the body for one index always performs the same floating-point
 * operations in the same order regardless of which thread runs it.
 * All kernels in this codebase additionally write disjoint outputs per
 * index (rows of C, rows of a butterfly batch, (batch, head) slices of
 * attention) and never reduce across indices inside parallelFor.
 * Together this makes every parallel kernel produce bitwise-identical
 * results at ANY thread count, including 1 - the property the parity
 * tests in tests/parallel_kernels_test.cpp pin down.
 *
 * Nested parallelFor calls (a body that itself calls parallelFor) run
 * the inner loop serially on the calling worker, so composition is
 * safe and still deterministic.
 *
 * ## Cancellation
 * A thread may install a CancelToken with a CancelScope; parallelFor
 * regions STARTED BY THAT THREAD then re-check the token between grain
 * chunks and abort by throwing Cancelled once it fires (in-flight
 * chunks finish; no partial chunk is ever observed). This is the
 * mechanism the serving watchdog and shutdown deadline use to unstick
 * a model invocation without poisoning results: a cancelled region's
 * output is discarded by the thrower, and regions started by other
 * threads never see the token. checkCancelled() offers the same test
 * at coarser (e.g. per-layer) granularity between regions.
 */
#ifndef FABNET_RUNTIME_PARALLEL_H
#define FABNET_RUNTIME_PARALLEL_H

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>

namespace fabnet {
namespace runtime {

/** Current pool size (>= 1). */
std::size_t numThreads();

/** Largest FABNET_NUM_THREADS value honoured. */
inline constexpr std::size_t kMaxEnvThreads = 1024;

/**
 * Parse a FABNET_NUM_THREADS value: a whole decimal (digits only, no
 * sign or trailing text) in [1, kMaxEnvThreads]. Returns 0 for
 * anything else, including values that would overflow.
 */
std::size_t parseNumThreads(const char *s);

/**
 * Resize the pool. @p n == 0 re-reads FABNET_NUM_THREADS / hardware
 * concurrency. Safe to call between parallel regions (not from inside
 * a parallelFor body).
 */
void setNumThreads(std::size_t n);

/**
 * Execute body(chunk_begin, chunk_end) over a partition of
 * [begin, end) in parallel. @p grain is the maximum chunk size (also
 * the unit of work distribution); pass the natural "row" granularity
 * of the kernel. Runs inline when the range is small or the pool has
 * one thread. Exceptions thrown by the body are rethrown on the
 * calling thread.
 */
void parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)> &body);

/** Thrown out of parallelFor / checkCancelled when the installing
 *  thread's CancelToken fires. Catch sites discard the partial work. */
class Cancelled : public std::exception
{
  public:
    const char *what() const noexcept override
    {
        return "fabnet::runtime::Cancelled";
    }
};

/**
 * One-shot cancellation flag, settable from any thread (a watchdog, a
 * shutdown timer). Observed by parallelFor regions of the thread that
 * installed it via CancelScope, and by explicit checkCancelled().
 */
class CancelToken
{
  public:
    void cancel() { flag_.store(true, std::memory_order_release); }
    bool cancelled() const
    {
        return flag_.load(std::memory_order_acquire);
    }
    void reset() { flag_.store(false, std::memory_order_release); }

  private:
    std::atomic<bool> flag_{false};
};

/**
 * RAII install of a CancelToken on the calling thread. While in scope,
 * parallelFor regions started by this thread poll the token between
 * grain chunks and throw Cancelled when it fires; other threads'
 * regions are unaffected. Scopes nest (the innermost token wins) and
 * the previous token is restored on destruction.
 */
class CancelScope
{
  public:
    explicit CancelScope(const CancelToken &token);
    ~CancelScope();
    CancelScope(const CancelScope &) = delete;
    CancelScope &operator=(const CancelScope &) = delete;

  private:
    const CancelToken *previous_;
};

/** Throw Cancelled if the calling thread's installed token has fired
 *  (no-op without a CancelScope) - the between-regions check coarse
 *  paths (e.g. SequenceClassifier::forwardBatch between blocks) use. */
void checkCancelled();

} // namespace runtime
} // namespace fabnet

#endif // FABNET_RUNTIME_PARALLEL_H
