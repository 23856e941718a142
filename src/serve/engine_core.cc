#include "serve/engine_core.h"

#include <stdexcept>
#include <string>

#include "runtime/workspace.h"

namespace fabnet {
namespace serve {

namespace {

/**
 * Process-wide registry of engine-installed workspace caps. With
 * overlapping engine lifetimes the tightest active cap wins (safe for
 * all of them - a tighter cap only trades reallocation for footprint),
 * and the pre-existing policy is restored only when the last engine
 * goes away.
 */
class WorkspaceCapRegistry
{
  public:
    void install(std::size_t cap)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (caps_.empty())
            baseline_ = runtime::workspaceCapBytes();
        caps_.insert(cap);
        runtime::setWorkspaceCapBytes(*caps_.begin());
    }
    void remove(std::size_t cap)
    {
        std::lock_guard<std::mutex> lk(mu_);
        caps_.erase(caps_.find(cap));
        runtime::setWorkspaceCapBytes(caps_.empty() ? baseline_
                                                    : *caps_.begin());
    }

  private:
    std::mutex mu_;
    std::multiset<std::size_t> caps_;
    std::size_t baseline_ = 0;
};

WorkspaceCapRegistry g_cap_registry;

} // namespace

namespace detail {

void
installWorkspaceCap(std::size_t cap)
{
    g_cap_registry.install(cap);
}

void
removeWorkspaceCap(std::size_t cap)
{
    g_cap_registry.remove(cap);
}

} // namespace detail

void
EngineCore::start(const char *engine, std::size_t max_seq,
                  std::size_t workspace_cap_bytes)
{
    if (max_queue_tokens_ != 0 && max_queue_tokens_ < max_seq)
        throw std::invalid_argument(
            std::string(engine) +
            ": max_queue_tokens below max_seq would make some valid "
            "requests permanently inadmissible");
    ws_cap_lease_ = detail::WorkspaceCapLease(workspace_cap_bytes);
    if (watchdog_timeout_.count() > 0)
        watchdog_ = std::thread([this] { watchdogLoop(); });
}

EngineCore::~EngineCore()
{
    if (watchdog_.joinable()) {
        {
            std::lock_guard<std::mutex> wl(wd_mu_);
            wd_stop_ = true;
            wd_cv_.notify_all();
        }
        watchdog_.join();
    }
    // ws_cap_lease_ releases the workspace cap via member destruction.
}

std::uint64_t
EngineCore::beginAdmissionLocked()
{
    if (closedLocked())
        throw Error(ErrorCode::ShuttingDown,
                    "engine is shutting down; request not admitted");
    return submit_seq_++;
}

std::uint64_t
EngineCore::admitLocked(std::uint64_t admission_index, std::size_t tokens,
                        Deadline deadline, bool enforce_bounds)
{
    if (plan_ &&
        plan_->requestFault(admission_index, FaultPlan::Stage::Admission))
        throw Error(ErrorCode::InvalidRequest,
                    "injected admission fault (request #" +
                        std::to_string(admission_index) + ")");
    const auto now = RequestBatcher::Clock::now();
    if (deadline != kNoDeadline && deadline <= now) {
        ++stats_.expired_in_queue;
        throw Error(ErrorCode::DeadlineExceeded,
                    "deadline already expired at submit");
    }
    if (enforce_bounds) {
        const auto over = [&] {
            return (max_queue_requests_ != 0 &&
                    queued_requests_ >= max_queue_requests_) ||
                   (max_queue_tokens_ != 0 &&
                    queued_tokens_ + tokens > max_queue_tokens_);
        };
        if (over() && shed_policy_ == ShedPolicy::DropExpiredFirst) {
            const std::size_t n = evict_(
                now, Error(ErrorCode::DeadlineExceeded,
                           "shed from the admission queue "
                           "(DropExpiredFirst: deadline expired before "
                           "dispatch)"));
            stats_.shed += n;
            stats_.failed += n;
        }
        if (over()) {
            ++stats_.rejected;
            throw Error(ErrorCode::QueueFull,
                        "admission queue full (" +
                            std::to_string(queued_requests_) +
                            " requests / " +
                            std::to_string(queued_tokens_) +
                            " tokens queued)");
        }
    }
    const std::uint64_t id = next_id_++;
    outstanding_.insert(id);
    ++queued_requests_;
    queued_tokens_ += tokens;
    ++stats_.requests;
    return id;
}

Error
EngineCore::expiredInQueueLocked()
{
    ++stats_.failed;
    ++stats_.expired_in_queue;
    return Error(ErrorCode::DeadlineExceeded,
                 "deadline expired in queue (request never reached the "
                 "model)");
}

void
EngineCore::waitResolvedBelow(std::unique_lock<std::mutex> &lk,
                              std::uint64_t watermark)
{
    // A shutdown() racing this wait resolves every outstanding future
    // (served, or failed at a shutdown deadline), so the predicate
    // always becomes true: a flush is never stranded across shutdown.
    idle_cv_.wait(lk, [&] {
        return resolvedBelowLocked(watermark) || stop_;
    });
}

void
EngineCore::failQueuedLocked()
{
    stats_.failed += evict_(
        kNoDeadline,
        Error(ErrorCode::ShuttingDown,
              "engine shut down before this request was served"));
    idle_cv_.notify_all();
}

void
EngineCore::shutdown(Deadline deadline)
{
    std::unique_lock<std::mutex> lk(mu_);
    draining_ = true;
    work_cv_.notify_all(); // the worker switches to drain mode
    const auto all_resolved = [this] { return outstanding_.empty(); };
    if (deadline == kNoDeadline) {
        // Full drain. (Not wait_until: time_point::max() overflows
        // some libstdc++ wait implementations.)
        idle_cv_.wait(lk, all_resolved);
        return;
    }
    if (idle_cv_.wait_until(lk, deadline, all_resolved))
        return;
    // Deadline passed: fail everything still queued, cooperatively
    // cancel the in-flight invocation, and wait for the engine to
    // unwind the rest. abandon_ is set first so a Cancelled
    // invocation - and one that arms after this point - attributes to
    // shutdown.
    abandon_.store(true, std::memory_order_release);
    failQueuedLocked();
    {
        std::lock_guard<std::mutex> wl(wd_mu_);
        if (wd_token_)
            wd_token_->cancel();
    }
    work_cv_.notify_all();
    idle_cv_.wait(lk, all_resolved);
}

void
EngineCore::stop()
{
    // Full graceful drain first: every outstanding future resolves
    // (and every flush() waiter is released) before the worker exits.
    shutdown(kNoDeadline);
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    work_cv_.notify_all();
    idle_cv_.notify_all();
}

Error
EngineCore::cancelCause() const
{
    return abandoned()
               ? Error(ErrorCode::ShuttingDown,
                       "invocation cancelled at the shutdown deadline")
               : Error(ErrorCode::ModelFault,
                       "watchdog cancelled a stuck model invocation");
}

Error
EngineCore::faultFrom(std::exception_ptr ep) const
{
    try {
        std::rethrow_exception(ep);
    } catch (const runtime::Cancelled &) {
        return cancelCause();
    } catch (const Error &e) {
        return e;
    } catch (const std::exception &e) {
        return Error(ErrorCode::ModelFault, e.what());
    } catch (...) {
        return Error(ErrorCode::ModelFault, "unknown model exception");
    }
}

Tensor
EngineCore::invokeRetry(std::uint64_t admission_index, std::mutex *model_mu,
                        const std::function<Tensor()> &fn)
{
    std::optional<std::uint64_t> poisoned;
    if (plan_ &&
        plan_->requestFault(admission_index, FaultPlan::Stage::Model))
        poisoned = admission_index;
    return invoke(std::nullopt, poisoned, model_mu, fn);
}

Tensor
EngineCore::invoke(std::optional<std::size_t> invocation,
                   std::optional<std::uint64_t> poisoned,
                   std::mutex *model_mu, const std::function<Tensor()> &fn)
{
    bool stall = false;
    if (plan_ && invocation) {
        const std::chrono::microseconds d = plan_->batchDelay(*invocation);
        if (d.count() > 0)
            std::this_thread::sleep_for(d);
        stall = plan_->batchStalls(*invocation);
    }
    std::unique_lock<std::mutex> model_lock;
    if (model_mu)
        model_lock = std::unique_lock<std::mutex>(*model_mu);
    runtime::CancelToken cancel;
    {
        // Arm the watchdog for the duration of the call.
        std::lock_guard<std::mutex> wl(wd_mu_);
        wd_token_ = &cancel;
        wd_started_ = RequestBatcher::Clock::now();
        wd_fired_ = false;
        wd_cv_.notify_all();
    }
    struct Disarm
    {
        EngineCore &c;
        ~Disarm()
        {
            std::lock_guard<std::mutex> wl(c.wd_mu_);
            c.wd_token_ = nullptr;
            c.wd_cv_.notify_all();
        }
    } disarm{*this};
    runtime::CancelScope scope(cancel);
    // A shutdown deadline that passed before the call (while waiting
    // for the model mutex, say) cancels it before any work is done.
    if (abandoned())
        cancel.cancel();
    if (stall) {
        // Injected stall: spin until the watchdog (or a shutdown
        // deadline) cancels us; the safety bound turns a missing
        // watchdog into a loud ModelFault instead of a hung test.
        const auto start = RequestBatcher::Clock::now();
        for (;;) {
            if (cancel.cancelled())
                throw runtime::Cancelled{};
            if (RequestBatcher::Clock::now() - start >
                std::chrono::seconds(10))
                throw Error(ErrorCode::ModelFault,
                            "injected stall hit its 10s safety bound "
                            "(no watchdog cancelled it)");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }
    if (poisoned)
        throw Error(ErrorCode::ModelFault,
                    "injected model fault (request #" +
                        std::to_string(*poisoned) + ")");
    return fn();
}

void
EngineCore::watchdogLoop()
{
    std::unique_lock<std::mutex> wl(wd_mu_);
    for (;;) {
        if (wd_stop_)
            return;
        if (!wd_token_ || wd_fired_) {
            wd_cv_.wait(wl);
            continue;
        }
        const auto fire_at = wd_started_ + watchdog_timeout_;
        if (RequestBatcher::Clock::now() >= fire_at) {
            // The token lives on the invoking thread's stack, but
            // disarming takes wd_mu_, so it cannot die while we hold
            // the lock.
            wd_token_->cancel();
            wd_fired_ = true;
            wl.unlock(); // never hold wd_mu_ while taking mu_
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++stats_.watchdog_fired;
            }
            wl.lock();
            continue;
        }
        wd_cv_.wait_until(wl, fire_at);
    }
}

} // namespace serve
} // namespace fabnet
