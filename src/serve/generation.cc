#include "serve/generation.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/embedding.h"

namespace fabnet {
namespace serve {

namespace {

/** FaultPlan row key of a live sequence (EngineCore::invokeBatch). */
constexpr auto kAdmissionOf = [](const auto &live) {
    return live.req.admission_index;
};

} // namespace

GenerationEngine::GenerationEngine(CausalGenerator &gen,
                                   GenerationConfig cfg)
    : gen_(gen), cfg_(cfg),
      core_("GenerationEngine", cfg_, gen.maxSeq(),
            [this](Deadline cutoff, const Error &err) {
                return evictQueuedLocked(cutoff, err);
            })
{
    if (cfg_.max_live == 0)
        throw std::invalid_argument(
            "GenerationEngine: max_live must be >= 1");
    scheduler_ = std::thread([this] { schedulerLoop(); });
}

GenerationEngine::~GenerationEngine()
{
    core_.stop();
    scheduler_.join();
}

std::future<std::vector<int>>
GenerationEngine::submit(std::vector<int> prompt,
                         std::size_t max_new_tokens, Deadline deadline,
                         TokenCallback on_token)
{
    std::lock_guard<std::mutex> lk(core_.mu());
    const std::uint64_t admission_index = core_.beginAdmissionLocked();
    if (prompt.empty())
        throw Error(ErrorCode::InvalidRequest, "empty prompt");
    // >= and not >: a prompt that already fills every position has no
    // slot for even one generated token. Admitting it used to surface
    // later as a [ModelFault] when prefill ran off the positional
    // table; rejecting at submit keeps the failure typed and
    // synchronous.
    if (prompt.size() >= gen_.maxSeq())
        throw Error(ErrorCode::InvalidRequest,
                    "prompt leaves no room to generate (" +
                        std::to_string(prompt.size()) +
                        " >= max_seq " +
                        std::to_string(gen_.maxSeq()) + ")");
    if (max_new_tokens == 0)
        throw Error(ErrorCode::InvalidRequest,
                    "max_new_tokens must be >= 1");
    const std::uint64_t id = core_.admitLocked(
        admission_index, prompt.size(), deadline, true);
    queue_.emplace_back();
    GenRequest &r = queue_.back();
    r.prompt = std::move(prompt);
    r.max_new = max_new_tokens;
    r.deadline = deadline;
    r.on_token = std::move(on_token);
    r.admission_index = admission_index;
    r.id = id;
    std::future<std::vector<int>> fut = r.promise.get_future();
    core_.workCv().notify_all();
    return fut;
}

std::size_t
GenerationEngine::evictQueuedLocked(Deadline cutoff, const Error &err)
{
    std::deque<GenRequest> kept;
    std::size_t evicted = 0;
    for (GenRequest &r : queue_) {
        if (r.deadline > cutoff) {
            kept.push_back(std::move(r));
            continue;
        }
        core_.dequeuedLocked(r.prompt.size());
        r.promise.set_exception(std::make_exception_ptr(err));
        core_.resolvedLocked(r.id);
        ++evicted;
    }
    queue_.swap(kept);
    return evicted;
}

void
GenerationEngine::flush()
{
    std::unique_lock<std::mutex> lk(core_.mu());
    // Watermark: wait for the requests submitted before this call
    // only, so concurrent submitters cannot starve a flusher. The
    // scheduler admits FIFO and continuously, so no drain handoff is
    // needed (unlike ServingEngine's bucketed flush).
    core_.waitResolvedBelow(lk, core_.watermarkLocked());
}

void
GenerationEngine::shutdown(Deadline deadline)
{
    core_.shutdown(deadline);
}

GenerationStats
GenerationEngine::stats() const
{
    std::lock_guard<std::mutex> lk(core_.mu());
    GenerationStats out = stats_;
    core_.statsLocked().copyTo(out);
    return out;
}

void
GenerationEngine::completeSeq(Live &seq)
{
    // Order: stats counted first, then the future resolves, and only
    // then is the request marked resolved - so a flush()/shutdown()
    // waiter that wakes on it always finds the future ready, and a
    // client waking from future.get() always sees itself counted.
    {
        std::lock_guard<std::mutex> lk(core_.mu());
        ++core_.statsLocked().completed;
    }
    seq.req.promise.set_value(std::move(seq.generated));
    {
        std::lock_guard<std::mutex> lk(core_.mu());
        core_.resolvedLocked(seq.req.id);
    }
}

void
GenerationEngine::failSeq(GenRequest &req, const Error &err,
                          bool mid_decode)
{
    // Same publication order as completeSeq.
    {
        std::lock_guard<std::mutex> lk(core_.mu());
        core_.countFailedLocked(1, err);
        if (mid_decode)
            ++stats_.expired_mid_decode;
    }
    req.promise.set_exception(std::make_exception_ptr(err));
    {
        std::lock_guard<std::mutex> lk(core_.mu());
        core_.resolvedLocked(req.id);
    }
}

bool
GenerationEngine::deliverToken(Live &seq, int tok)
{
    // Count BEFORE the callback/future can observe the token, matching
    // the engine-wide "stats published before results" order.
    {
        std::lock_guard<std::mutex> lk(core_.mu());
        ++stats_.decode_tokens;
    }
    seq.generated.push_back(tok);
    if (seq.req.on_token) {
        try {
            seq.req.on_token(tok);
        } catch (...) {
            failSeq(seq.req,
                    Error(ErrorCode::InvalidRequest,
                          "token callback threw; request failed"),
                    false);
            return false;
        }
    }
    return true;
}

bool
GenerationEngine::advance(Live &seq, int tok)
{
    if (!deliverToken(seq, tok))
        return false;
    seq.next_input = tok;
    if (!seqDone(seq))
        return true;
    completeSeq(seq);
    return false;
}

bool
GenerationEngine::seqDone(const Live &seq) const
{
    if (seq.generated.size() >= seq.req.max_new)
        return true;
    if (cfg_.eos_token >= 0 && !seq.generated.empty() &&
        seq.generated.back() == cfg_.eos_token)
        return true;
    // Positional table exhausted: no further step is legal.
    return seq.state.len >= gen_.maxSeq();
}

void
GenerationEngine::isolateEach(std::vector<Live> &seqs,
                              std::vector<Live> &keep,
                              const std::function<Tensor(Live &)> &one)
{
    {
        std::lock_guard<std::mutex> lk(core_.mu());
        ++core_.statsLocked().isolation_retries;
    }
    for (Live &s : seqs) {
        Tensor logits;
        try {
            logits = core_.invokeRetry(s.req.admission_index, nullptr,
                                       [&] { return one(s); });
        } catch (...) {
            failSeq(s.req, core_.faultFrom(std::current_exception()),
                    false);
            continue;
        }
        if (advance(s, nn::argmaxRows(logits)[0]))
            keep.push_back(std::move(s));
    }
}

void
GenerationEngine::prefillAdmitted(std::vector<GenRequest> reqs,
                                  std::vector<Live> &live)
{
    std::size_t inv = 0;
    {
        std::lock_guard<std::mutex> lk(core_.mu());
        inv = invoke_seq_++;
        ++stats_.prefill_batches;
        for (const GenRequest &r : reqs)
            stats_.prefill_tokens += r.prompt.size();
    }

    std::vector<Live> fresh;
    fresh.reserve(reqs.size());
    for (GenRequest &r : reqs) {
        Live s;
        s.req = std::move(r);
        s.state = gen_.newState();
        fresh.push_back(std::move(s));
    }
    std::vector<std::vector<int>> prompts;
    std::vector<SequenceState *> states;
    prompts.reserve(fresh.size());
    states.reserve(fresh.size());
    for (Live &s : fresh) {
        prompts.push_back(s.req.prompt);
        states.push_back(&s.state);
    }

    Tensor logits;
    try {
        logits = core_.invokeBatch(
            inv, fresh, kAdmissionOf, nullptr,
            [&] { return gen_.prefill(prompts, states); });
    } catch (const runtime::Cancelled &) {
        // The invocation never finished; no sequence has a usable
        // state, and re-running a stuck batch would stick again.
        const Error err = core_.cancelCause();
        for (Live &s : fresh)
            failSeq(s.req, err, false);
        return;
    } catch (...) {
        // A faulted batched prefill may have captured some layers'
        // caches before throwing; each retry starts from a rolled-back
        // (empty) state.
        for (Live &s : fresh)
            gen_.rollback(s.state, 0);
        isolateEach(fresh, live, [&](Live &s) {
            return gen_.prefill({s.req.prompt}, {&s.state});
        });
        return;
    }

    const std::vector<int> toks = nn::argmaxRows(logits);
    for (std::size_t i = 0; i < fresh.size(); ++i)
        if (advance(fresh[i], toks[i]))
            live.push_back(std::move(fresh[i]));
}

void
GenerationEngine::stepLive(std::vector<Live> &live)
{
    std::size_t inv = 0;
    {
        std::lock_guard<std::mutex> lk(core_.mu());
        inv = invoke_seq_++;
        ++stats_.steps;
    }

    std::vector<int> toks;
    std::vector<SequenceState *> states;
    std::vector<std::size_t> pre_lens;
    toks.reserve(live.size());
    states.reserve(live.size());
    pre_lens.reserve(live.size());
    for (Live &s : live) {
        toks.push_back(s.next_input);
        states.push_back(&s.state);
        pre_lens.push_back(s.state.len);
    }

    std::vector<Live> keep;
    keep.reserve(live.size());
    Tensor logits;
    try {
        logits = core_.invokeBatch(
            inv, live, kAdmissionOf, nullptr,
            [&] { return gen_.decodeStep(toks, states); });
    } catch (const runtime::Cancelled &) {
        const Error err = core_.cancelCause();
        for (Live &s : live)
            failSeq(s.req, err, false);
        live.clear();
        return;
    } catch (...) {
        // Roll every sequence back to its pre-step cache length (a
        // faulted step may have appended K/V rows before throwing),
        // then retry one sequence at a time: survivors advance bitwise
        // identically (the 1-row step equals its batched step by the
        // decode-parity contract), the poisoned sequence alone fails.
        for (std::size_t i = 0; i < live.size(); ++i)
            gen_.rollback(live[i].state, pre_lens[i]);
        isolateEach(live, keep, [&](Live &s) {
            return gen_.decodeStep({s.next_input}, {&s.state});
        });
        live.swap(keep);
        return;
    }

    const std::vector<int> next = nn::argmaxRows(logits);
    for (std::size_t i = 0; i < live.size(); ++i)
        if (advance(live[i], next[i]))
            keep.push_back(std::move(live[i]));
    live.swap(keep);
}

void
GenerationEngine::schedulerLoop()
{
    std::vector<Live> live;
    std::unique_lock<std::mutex> lk(core_.mu());
    for (;;) {
        if (core_.abandoned() && !queue_.empty())
            core_.failQueuedLocked();
        // Admission up to max_live: pop FIFO, discarding requests that
        // expired while queued (failed before any model time).
        std::vector<GenRequest> admitted;
        const auto now = RequestBatcher::Clock::now();
        while (live.size() + admitted.size() < cfg_.max_live &&
               !queue_.empty()) {
            GenRequest r = std::move(queue_.front());
            queue_.pop_front();
            core_.dequeuedLocked(r.prompt.size());
            if (r.deadline != kNoDeadline && r.deadline <= now) {
                r.promise.set_exception(
                    std::make_exception_ptr(core_.expiredInQueueLocked()));
                core_.resolvedLocked(r.id);
                continue;
            }
            admitted.push_back(std::move(r));
        }
        if (admitted.empty() && live.empty()) {
            if (core_.stoppedLocked())
                break;
            core_.workCv().wait(lk);
            continue;
        }
        stats_.peak_live =
            std::max(stats_.peak_live, live.size() + admitted.size());
        lk.unlock();

        if (!admitted.empty())
            prefillAdmitted(std::move(admitted), live);

        if (core_.abandoned()) {
            const Error err(ErrorCode::ShuttingDown,
                            "live sequence evicted at the shutdown "
                            "deadline");
            for (Live &s : live)
                failSeq(s.req, err, false);
            live.clear();
            lk.lock();
            continue;
        }

        // Per-step deadline eviction: an expired live sequence leaves
        // BEFORE the next token is computed.
        const auto step_now = RequestBatcher::Clock::now();
        for (auto it = live.begin(); it != live.end();) {
            if (it->req.deadline != kNoDeadline &&
                it->req.deadline <= step_now) {
                failSeq(it->req,
                        Error(ErrorCode::DeadlineExceeded,
                              "deadline passed mid-decode (partial "
                              "generation discarded)"),
                        true);
                it = live.erase(it);
            } else {
                ++it;
            }
        }

        if (!live.empty())
            stepLive(live);

        lk.lock();
    }
    lk.unlock();
    // stop() with sequences still live cannot happen after an orderly
    // shutdown(); fail any leftovers rather than stranding futures.
    for (Live &s : live)
        failSeq(s.req, Error(ErrorCode::ShuttingDown, "engine stopped"),
                false);
}

} // namespace serve
} // namespace fabnet
