/**
 * @file engine_core.h
 * The reliability core both serving engines share.
 *
 * ServingEngine (length-bucketed classify batches) and
 * GenerationEngine (continuous decode steps) schedule differently but
 * fail, bound and drain the same way. EngineCore is that common part,
 * written once; each engine holds one as a private member and calls it
 * directly (there is no scheduler base class). It owns:
 *  - the engine mutex and its two condition variables (work: wakes the
 *    engine's worker thread; idle: wakes flush()/shutdown() waiters);
 *  - admission: the shutting-down refusal, the admission index that
 *    keys FaultPlan request faults, the injected admission fault, the
 *    expired-at-submit check, the request/token caps with the
 *    DropExpiredFirst shed pass and QueueFull;
 *  - the lifecycle: the outstanding-request watermark flush() waits
 *    on, shutdown(deadline) and destructor teardown;
 *  - the guarded model invocation: cancel token, watchdog arm,
 *    CancelScope, the injected delay/stall/fault, and the mapping of
 *    any invocation failure to a typed serve::Error;
 *  - the watchdog thread;
 *  - the counters both stats structs share (CoreStats).
 *
 * The core never touches an engine's queue itself. It calls back
 * through one hook, EvictQueued, to fail and remove queued requests:
 * the expired ones for the shed pass, all of them at a shutdown
 * deadline.
 *
 * ## Lock order
 * mu() -> wd_mu_ (shutdown cancels the armed token) and
 * model_mu -> wd_mu_ (an invocation arms while holding ServingEngine's
 * model mutex). The watchdog drops wd_mu_ before it takes mu() to
 * count a firing, so no path holds wd_mu_ while waiting for either.
 */
#ifndef FABNET_SERVE_ENGINE_CORE_H
#define FABNET_SERVE_ENGINE_CORE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "runtime/parallel.h"
#include "serve/batcher.h"
#include "serve/error.h"
#include "serve/fault.h"
#include "tensor/tensor.h"

namespace fabnet {
namespace serve {

namespace detail {
/**
 * Process-wide engine-shared workspace-cap registry (engine_core.cc):
 * the tightest active cap wins, and the pre-existing policy is
 * restored when the last engine removes its cap.
 */
void installWorkspaceCap(std::size_t cap);
void removeWorkspaceCap(std::size_t cap);

/**
 * RAII lease on the cap registry. EngineCore holds one as a data
 * member declared BEFORE its watchdog thread member: if anything later
 * in construction throws (std::thread can raise std::system_error),
 * the already-constructed lease member is destroyed and the cap comes
 * back out of the registry - the destructor never runs for a
 * partially constructed object, so a plain install-in-ctor /
 * remove-in-dtor pair would leak the process-wide cap on exactly that
 * path. A zero cap is a no-op lease.
 */
class WorkspaceCapLease
{
  public:
    WorkspaceCapLease() = default;
    explicit WorkspaceCapLease(std::size_t cap) : cap_(cap)
    {
        if (cap_ != 0)
            installWorkspaceCap(cap_);
    }
    WorkspaceCapLease(WorkspaceCapLease &&o) noexcept : cap_(o.cap_)
    {
        o.cap_ = 0;
    }
    WorkspaceCapLease &operator=(WorkspaceCapLease &&o) noexcept
    {
        if (this != &o) {
            release();
            cap_ = o.cap_;
            o.cap_ = 0;
        }
        return *this;
    }
    WorkspaceCapLease(const WorkspaceCapLease &) = delete;
    WorkspaceCapLease &operator=(const WorkspaceCapLease &) = delete;
    ~WorkspaceCapLease() { release(); }

  private:
    void release()
    {
        if (cap_ != 0) {
            removeWorkspaceCap(cap_);
            cap_ = 0;
        }
    }
    std::size_t cap_ = 0;
};
} // namespace detail

/**
 * Absolute per-request deadline on the batcher's steady clock.
 * kNoDeadline (the default everywhere) disables deadline handling for
 * that request entirely.
 */
using Deadline = RequestBatcher::Clock::time_point;

/** "No deadline": requests carrying this value never expire. */
inline constexpr Deadline kNoDeadline = Deadline::max();

/**
 * Deadline @p d from now (submit(tokens, deadlineAfter(50ms))).
 *
 * Saturating: `now + d` is evaluated in a wide floating representation
 * of the clock's period, so a huge duration (hours(1 << 20),
 * microseconds::max(), duration::max() of any unit) can never overflow
 * the steady_clock rep into a long-PAST deadline that expires every
 * request instantly. Anything that would land at or beyond
 * kNoDeadline saturates TO kNoDeadline - "further out than the clock
 * can represent" and "no deadline" are operationally identical.
 * Negative durations symmetrically saturate to the clock's minimum
 * (an already-expired deadline, as expected).
 */
template <class Rep, class Period>
inline Deadline
deadlineAfter(std::chrono::duration<Rep, Period> d)
{
    using ClockDur = RequestBatcher::Clock::duration;
    using Wide = std::chrono::duration<long double, ClockDur::period>;
    const Deadline now = RequestBatcher::Clock::now();
    // All three values in units of the clock period, as long double
    // (80/128-bit: exact for any rep the comparison needs to rank).
    const long double now_ticks =
        static_cast<long double>(now.time_since_epoch().count());
    const long double want_ticks =
        std::chrono::duration_cast<Wide>(d).count();
    const long double max_ticks = static_cast<long double>(
        kNoDeadline.time_since_epoch().count());
    const long double min_ticks = static_cast<long double>(
        Deadline::min().time_since_epoch().count());
    if (want_ticks >= max_ticks - now_ticks)
        return kNoDeadline;
    if (want_ticks <= min_ticks - now_ticks)
        return Deadline::min();
    return now + std::chrono::duration_cast<ClockDur>(d);
}

/** What bounded admission does when the queue caps are hit. */
enum class ShedPolicy {
    /** Reject the NEW request with Error{QueueFull}. Queued requests
     *  are never touched - strict FIFO fairness. */
    RejectNew,
    /** First shed queued requests whose deadline has already expired
     *  (they are failed with Error{DeadlineExceeded} - they could
     *  never be served in time anyway), then admit if that made room,
     *  else reject with Error{QueueFull}. Under overload this spends
     *  the queue on requests that can still meet their deadline. */
    DropExpiredFirst,
};

/** The counters ServingStats and GenerationStats share (same names,
 *  same meaning; see those structs for the per-field contract). */
struct CoreStats
{
    std::size_t requests = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t rejected = 0;
    std::size_t shed = 0;
    std::size_t expired_in_queue = 0;
    std::size_t model_faults = 0;
    std::size_t isolation_retries = 0;
    std::size_t watchdog_fired = 0;

    /** Copy into an engine's flat public stats struct. */
    template <class Stats>
    void copyTo(Stats &s) const
    {
        s.requests = requests;
        s.completed = completed;
        s.failed = failed;
        s.rejected = rejected;
        s.shed = shed;
        s.expired_in_queue = expired_in_queue;
        s.model_faults = model_faults;
        s.isolation_retries = isolation_retries;
        s.watchdog_fired = watchdog_fired;
    }
};

/** Shared admission, deadline, watchdog, invocation and drain logic. */
class EngineCore
{
  public:
    /**
     * The engine's one hook (called with mu() held): fail every
     * QUEUED request whose deadline is at or before @p cutoff with
     * @p err, remove it from the engine's queue (calling
     * dequeuedLocked() and resolvedLocked() for it) and return how
     * many were evicted. kNoDeadline as the cutoff evicts them all.
     */
    using EvictQueued =
        std::function<std::size_t(Deadline cutoff, const Error &err)>;

    /**
     * Reads the shared fields of @p cfg (ServingConfig or
     * GenerationConfig): the queue caps, shed policy, watchdog
     * timeout, fault plan and workspace cap. Throws
     * std::invalid_argument (prefixed with @p engine) when
     * max_queue_tokens is below @p max_seq, which would make some
     * valid requests permanently inadmissible. Starts the watchdog
     * thread when the timeout is positive.
     */
    template <class Config>
    EngineCore(const char *engine, const Config &cfg, std::size_t max_seq,
               EvictQueued evict)
        : max_queue_requests_(cfg.max_queue_requests),
          max_queue_tokens_(cfg.max_queue_tokens),
          shed_policy_(cfg.shed_policy),
          watchdog_timeout_(cfg.watchdog_timeout), plan_(cfg.fault_plan),
          evict_(std::move(evict))
    {
        start(engine, max_seq, cfg.workspace_cap_bytes);
    }
    /** Joins the watchdog. The engine must have called stop() and
     *  joined its own worker first (or never started one). */
    ~EngineCore();

    EngineCore(const EngineCore &) = delete;
    EngineCore &operator=(const EngineCore &) = delete;

    std::mutex &mu() const { return mu_; }
    /** Wakes the engine's worker (admission, drain, stop). */
    std::condition_variable &workCv() { return work_cv_; }

    // --------------------------------------------------- admission
    /** Refuse with ShuttingDown once shutdown began, else number the
     *  attempt: admission indices count every attempt that gets this
     *  far, rejected or not, so FaultPlan keys are deterministic for a
     *  fixed submission sequence. (mu() held) */
    std::uint64_t beginAdmissionLocked();
    /**
     * Admit attempt @p admission_index of @p tokens tokens: injected
     * admission fault (InvalidRequest), expired-at-submit
     * (DeadlineExceeded), and with @p enforce_bounds the caps - the
     * shed pass under DropExpiredFirst, then QueueFull. Nothing is
     * queued on any throw. Returns the request id the engine queues
     * it under; it is outstanding until resolvedLocked(id). (mu() held)
     */
    std::uint64_t admitLocked(std::uint64_t admission_index,
                              std::size_t tokens, Deadline deadline,
                              bool enforce_bounds);
    /** A queued request of @p tokens tokens left the queue (claimed,
     *  evicted or unwound). (mu() held) */
    void dequeuedLocked(std::size_t tokens)
    {
        --queued_requests_;
        queued_tokens_ -= tokens;
    }
    /** Request @p id's future is resolved; wakes waiters. (mu() held) */
    void resolvedLocked(std::uint64_t id)
    {
        outstanding_.erase(id);
        idle_cv_.notify_all();
    }
    /** Count a queued request that expired before reaching the model
     *  and return the error it fails with. (mu() held) */
    Error expiredInQueueLocked();
    /** Count @p n requests failed with @p err. (mu() held) */
    void countFailedLocked(std::size_t n, const Error &err)
    {
        stats_.failed += n;
        if (err.code() == ErrorCode::ModelFault)
            stats_.model_faults += n;
    }
    CoreStats &statsLocked() { return stats_; }
    const CoreStats &statsLocked() const { return stats_; }

    // --------------------------------------------------- lifecycle
    /** True once shutdown() or stop() began. (mu() held) */
    bool closedLocked() const { return stop_ || draining_; }
    /** True once stop() ran: the worker exits when its queue is
     *  drained and waiters stop waiting. (mu() held) */
    bool stoppedLocked() const { return stop_; }
    /** True once a shutdown deadline passed. */
    bool abandoned() const
    {
        return abandon_.load(std::memory_order_acquire);
    }
    /** The id the next admitted request gets: a flush() watermark. */
    std::uint64_t watermarkLocked() const { return next_id_; }
    /** Every request admitted below @p watermark is resolved. */
    bool resolvedBelowLocked(std::uint64_t watermark) const
    {
        return outstanding_.empty() || *outstanding_.begin() >= watermark;
    }
    /** Wait until resolvedBelowLocked(@p watermark) or stop(). */
    void waitResolvedBelow(std::unique_lock<std::mutex> &lk,
                           std::uint64_t watermark);
    /** Fail every queued request with ShuttingDown. (mu() held) */
    void failQueuedLocked();
    /**
     * Graceful drain: refuse new admissions, let the engine serve
     * what is admitted, return once every outstanding future is
     * resolved. Past @p deadline the queue is failed with
     * ShuttingDown, the in-flight invocation is cancelled (its rows
     * fail ShuttingDown via cancelCause) and abandoned() turns true so
     * the engine evicts whatever else it holds. Idempotent.
     */
    void shutdown(Deadline deadline);
    /** Destructor teardown: full drain, then stop the worker. */
    void stop();

    // -------------------------------------------------- invocation
    /**
     * One guarded invocation of @p fn for a scheduled batch: the
     * FaultPlan delay and stall keyed on @p invocation, and the
     * sticky Model fault of the first of @p rows that carries one
     * (@p admission_of maps a row to its admission index). Holds
     * @p model_mu (if any) around the call. Throws runtime::Cancelled
     * when the watchdog or a shutdown deadline cancels it.
     */
    template <class Rows, class AdmissionOf>
    Tensor invokeBatch(std::size_t invocation, const Rows &rows,
                       AdmissionOf admission_of, std::mutex *model_mu,
                       const std::function<Tensor()> &fn)
    {
        std::optional<std::uint64_t> poisoned;
        if (plan_)
            for (const auto &r : rows)
                if (plan_->requestFault(admission_of(r),
                                        FaultPlan::Stage::Model)) {
                    poisoned = admission_of(r);
                    break;
                }
        return invoke(invocation, poisoned, model_mu, fn);
    }
    /** A 1-row isolation retry of the request at @p admission_index:
     *  never delayed or stalled, but its sticky Model fault (if any)
     *  fires again, so the poisoned row fails here. */
    Tensor invokeRetry(std::uint64_t admission_index, std::mutex *model_mu,
                       const std::function<Tensor()> &fn);
    /** The Error a cancelled invocation maps to: ShuttingDown after a
     *  shutdown deadline, else the watchdog's ModelFault. */
    Error cancelCause() const;
    /** Map an invocation failure to the typed error its rows fail
     *  with: Cancelled -> cancelCause(), serve::Error passes through,
     *  anything else becomes ModelFault keeping its message. */
    Error faultFrom(std::exception_ptr ep) const;

  private:
    void start(const char *engine, std::size_t max_seq,
               std::size_t workspace_cap_bytes);
    Tensor invoke(std::optional<std::size_t> invocation,
                  std::optional<std::uint64_t> poisoned,
                  std::mutex *model_mu, const std::function<Tensor()> &fn);
    void watchdogLoop();

    const std::size_t max_queue_requests_;
    const std::size_t max_queue_tokens_;
    const ShedPolicy shed_policy_;
    const std::chrono::microseconds watchdog_timeout_;
    const FaultPlan *const plan_;
    const EvictQueued evict_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    std::set<std::uint64_t> outstanding_; ///< admitted, not resolved
    std::uint64_t next_id_ = 0;
    std::uint64_t submit_seq_ = 0; ///< admission attempts (FaultPlan)
    std::size_t queued_requests_ = 0;
    std::size_t queued_tokens_ = 0;
    bool stop_ = false;     ///< stop(): the worker exits when drained
    bool draining_ = false; ///< shutdown(): no new admissions
    CoreStats stats_;
    /** Set once a shutdown deadline passed: a Cancelled invocation is
     *  then attributed to ShuttingDown, not the watchdog. */
    std::atomic<bool> abandon_{false};

    // Watchdog state, under wd_mu_ (kept off the request path's mu_).
    std::mutex wd_mu_;
    std::condition_variable wd_cv_;
    runtime::CancelToken *wd_token_ = nullptr; ///< in-flight invocation
    RequestBatcher::Clock::time_point wd_started_{};
    bool wd_fired_ = false; ///< fired for the current invocation
    bool wd_stop_ = false;

    /** Declared before the thread: released by member destruction
     *  even when start() throws mid-way. */
    detail::WorkspaceCapLease ws_cap_lease_;
    std::thread watchdog_; ///< only started when watchdog_timeout > 0
};

} // namespace serve
} // namespace fabnet

#endif // FABNET_SERVE_ENGINE_CORE_H
