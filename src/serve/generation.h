/**
 * @file generation.h
 * Continuous-batching streaming generation engine.
 *
 * GenerationEngine drives a CausalGenerator (model/generator.h) as a
 * token-serving system: callers submit a prompt and get a future for
 * the generated token sequence, with an optional per-token streaming
 * callback. Scheduling is CONTINUOUS: a single scheduler thread admits
 * and evicts sequences BETWEEN DECODE STEPS rather than per flush - a
 * fresh prompt joins the live set at the next step boundary (batched
 * ragged prefill), a finished sequence leaves at the step it completes,
 * and the step batch is whatever is live right now. The decode-parity
 * bitwise contract (nn/decode.h: a sequence's tokens depend only on its
 * own prefix, never on who shares its batches) is what makes this
 * scheduling freedom safe: admission order, eviction timing and
 * live-set composition can never change anyone's tokens.
 *
 * ## Failure model at token granularity (docs/SERVING.md)
 * The reliability layer ServingEngine shares (serve/engine_core.h),
 * carried to per-token granularity:
 *  - deadlines are re-checked EVERY STEP: an expired live sequence is
 *    evicted before the next token is computed (DeadlineExceeded with
 *    the tokens so far spent discarded, like mid-batch expiry);
 *  - bounded admission (queue depth + queued-prompt-token caps) with
 *    the same shed policies;
 *  - a fault inside one step poisons only its own sequence: every
 *    live sequence's K/V caches are ROLLED BACK to their pre-step
 *    length (a faulted step may have appended rows before throwing;
 *    truncation restores the exact pre-step state) and the step is
 *    retried one sequence at a time - survivors advance bitwise
 *    identically (the 1-row step equals its batched step), the
 *    poisoned sequence alone fails with ModelFault;
 *  - a watchdog cancels a stuck prefill/step cooperatively;
 *  - shutdown(deadline) drains live sequences to completion, then
 *    fails the remainder with ShuttingDown at the deadline.
 * serve/fault.h injects all of these deterministically: admission and
 * Model faults key on the ADMISSION index, delays and stalls key on
 * the INVOCATION index (prefills and decode steps share one counter,
 * numbered in dispatch order).
 */
#ifndef FABNET_SERVE_GENERATION_H
#define FABNET_SERVE_GENERATION_H

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "model/generator.h"
#include "serve/engine_core.h"
#include "serve/error.h"
#include "serve/fault.h"

namespace fabnet {
namespace serve {

/** Streamed per-token delivery: called on the scheduler thread as
 *  each token is produced, BEFORE the future resolves. Must be fast
 *  (it blocks every live sequence's next step) and must not throw -
 *  a throwing callback fails its own request with InvalidRequest. */
using TokenCallback = std::function<void(int token)>;

/** Scheduling/robustness knobs of the generation engine. */
struct GenerationConfig
{
    /** Maximum sequences decoding concurrently (the step batch cap).
     *  Admission above this waits in the queue for an eviction. */
    std::size_t max_live = 8;
    /** Token id ending generation when sampled (included in the
     *  output); negative = no EOS, run to max_new_tokens. */
    int eos_token = -1;
    /** Workspace retention cap while the engine lives (0 = leave the
     *  policy as-is); see ServingConfig::workspace_cap_bytes. */
    std::size_t workspace_cap_bytes = 4u << 20;

    // ------------------------------------------- bounded admission
    /** Max queued (not yet live) requests; 0 = unbounded. */
    std::size_t max_queue_requests = 0;
    /** Cap on total queued PROMPT tokens; 0 = unbounded. Must exceed
     *  max_seq to be satisfiable. */
    std::size_t max_queue_tokens = 0;
    /** What to do when a cap is hit (serve/engine_core.h). */
    ShedPolicy shed_policy = ShedPolicy::RejectNew;

    // ------------------------------------------------- reliability
    /** Per-invocation watchdog (one prefill or one decode step); 0
     *  disables. Must exceed the worst honest invocation latency. */
    std::chrono::microseconds watchdog_timeout{0};
    /** Deterministic fault injection (tests only; non-owning). */
    const FaultPlan *fault_plan = nullptr;
};

/** Counters observing the continuous scheduler. */
struct GenerationStats
{
    std::size_t requests = 0;   ///< prompts admitted by submit()
    std::size_t completed = 0;  ///< futures fulfilled with tokens
    std::size_t failed = 0;     ///< futures failed with an error
    std::size_t rejected = 0;   ///< QueueFull rejections (never queued)
    /** Queued requests evicted by DropExpiredFirst (subset of failed,
     *  disjoint from expired_in_queue). */
    std::size_t shed = 0;
    /** Failed with DeadlineExceeded before any model time: expired at
     *  submit or by the time the scheduler reached them. */
    std::size_t expired_in_queue = 0;
    /** Live sequences evicted because their deadline passed between
     *  decode steps (tokens generated so far are discarded). */
    std::size_t expired_mid_decode = 0;
    std::size_t model_faults = 0;      ///< sequences failed ModelFault
    std::size_t isolation_retries = 0; ///< faulted invocations isolated
    std::size_t watchdog_fired = 0;    ///< stuck invocations cancelled
    std::size_t prefill_batches = 0;   ///< batched prefill invocations
    std::size_t steps = 0;             ///< decode step invocations
    std::size_t prefill_tokens = 0;    ///< prompt tokens prefilled
    std::size_t decode_tokens = 0;     ///< tokens generated (streamed)
    std::size_t peak_live = 0;         ///< max concurrent live sequences

    /** Mean live sequences per decode step (continuous-batching
     *  utilisation: how full the step batches actually ran). */
    double avgLive() const
    {
        return steps ? static_cast<double>(decode_tokens) / steps : 0.0;
    }
};

/** Continuous-batching streaming front end over a CausalGenerator. */
class GenerationEngine
{
  public:
    explicit GenerationEngine(CausalGenerator &gen,
                              GenerationConfig cfg = {});
    ~GenerationEngine();

    GenerationEngine(const GenerationEngine &) = delete;
    GenerationEngine &operator=(const GenerationEngine &) = delete;

    /**
     * Enqueue one prompt; the future resolves to the generated tokens
     * (greedy argmax, EOS included when hit; the prompt is not
     * echoed) or fails with a serve::Error. @p on_token, if set,
     * streams each token as it is produced. Admission-time conditions
     * throw synchronously (InvalidRequest for an empty/over-long
     * prompt or max_new_tokens == 0, QueueFull after the shed policy
     * ran, DeadlineExceeded for an already-expired deadline,
     * ShuttingDown once shutdown began); later failures arrive through
     * the future.
     */
    std::future<std::vector<int>> submit(std::vector<int> prompt,
                                         std::size_t max_new_tokens,
                                         Deadline deadline = kNoDeadline,
                                         TokenCallback on_token = nullptr);

    /** Block until every request submitted before this call resolved. */
    void flush();

    /**
     * Graceful drain: stop admitting, decode everything already
     * admitted to completion, return once every future is resolved.
     * If @p deadline passes first the queued requests and the live
     * sequences are failed with ShuttingDown (the in-flight step is
     * cooperatively cancelled). Idempotent; the destructor calls
     * shutdown() if it has not been called.
     */
    void shutdown(Deadline deadline = kNoDeadline);

    GenerationStats stats() const;

  private:
    /** A submitted, not-yet-live request. */
    struct GenRequest
    {
        std::vector<int> prompt;
        std::size_t max_new = 0;
        Deadline deadline = kNoDeadline;
        TokenCallback on_token;
        std::uint64_t admission_index = 0;
        std::uint64_t id = 0;
        std::promise<std::vector<int>> promise;
    };

    /** One live (decoding) sequence. */
    struct Live
    {
        GenRequest req;
        SequenceState state;
        std::vector<int> generated;
        int next_input = 0; ///< newest token, fed to the next step
    };

    void schedulerLoop();

    /** Batched ragged prefill of newly admitted requests, appending
     *  the survivors to @p live (first token sampled and streamed).
     *  A faulted batch is rolled back and isolated per sequence. */
    void prefillAdmitted(std::vector<GenRequest> reqs,
                         std::vector<Live> &live);

    /** One decode step over the live set; faulted steps roll back and
     *  isolate per sequence. Completed/faulted sequences leave. */
    void stepLive(std::vector<Live> &live);

    /** Per-sequence fault isolation after a faulted batched
     *  invocation: re-run @p one for each of @p seqs (rolled back
     *  already) as a 1-row retry; survivors still live go to @p keep,
     *  the poisoned sequences alone fail. */
    void isolateEach(std::vector<Live> &seqs, std::vector<Live> &keep,
                     const std::function<Tensor(Live &)> &one);

    /** Feed @p tok (sampled for @p seq) through deliverToken; returns
     *  true while @p seq stays live, completing it when done. */
    bool advance(Live &seq, int tok);

    /** Deliver @p tok into @p seq (generated list + callback); returns
     *  false when the callback threw (the sequence is failed). */
    bool deliverToken(Live &seq, int tok);

    /** True when @p seq has everything it asked for (EOS, max_new, or
     *  the positional table is exhausted). */
    bool seqDone(const Live &seq) const;

    /** Resolve @p seq's future with its tokens (stats under the lock
     *  first), then mark it resolved. */
    void completeSeq(Live &seq);

    /** Fail one sequence/request (stats under the lock first). */
    void failSeq(GenRequest &req, const Error &err, bool mid_decode);

    /** EngineCore's EvictQueued hook (lock held). */
    std::size_t evictQueuedLocked(Deadline cutoff, const Error &err);

    CausalGenerator &gen_;
    GenerationConfig cfg_;
    /** Admission, deadlines, watchdog, drain; its mu() guards every
     *  member below. */
    EngineCore core_;

    std::deque<GenRequest> queue_;   ///< admitted, not yet live
    std::size_t invoke_seq_ = 0;     ///< model invocations (FaultPlan)
    /** Engine-specific counters; the shared ones live in core_. */
    GenerationStats stats_;

    std::thread scheduler_; ///< last member: starts fully-initialised
};

} // namespace serve
} // namespace fabnet

#endif // FABNET_SERVE_GENERATION_H
