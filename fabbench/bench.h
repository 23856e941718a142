/**
 * @file bench.h
 * Workload and layer-pass entry points of the FABNet runtime
 * benchmark (README.md in this directory explains every choice).
 */
#ifndef FABBENCH_BENCH_H
#define FABBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace fabbench {

/** Offered rates, fixed for every commit (never derived from a
 *  capacity measured in the same run; BENCHMARK.json's workload
 *  descriptions quote them). */
inline constexpr double kClassifyRps = 150.0;
inline constexpr double kDecodePromptsPerS = 40.0;
/** Rate of the layer pass's second classify phase, past what
 *  batch-of-one service sustains, so requests queue and batch
 *  (serve.avg_batch, serve.pad_share). It is not a gated workload: its
 *  latencies moved by 2x from run to run on a shared VM. */
inline constexpr double kClassifyBatchingRps = 250.0;

/** Set-up repetitions per run; setup_s is their median. */
inline constexpr int kSetupReps = 3;

struct RunConfig
{
    std::uint64_t seed = 1;
    double seconds = 15.0;
    int setup_reps = kSetupReps;
};

/** One workload run (or layer pass): what it measured and how its
 *  operations fared. */
struct Outcome
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    Metrics metrics;
    /** Engine counters of the run (serve.* / gen.* per-layer metrics). */
    Metrics layer;
    /** Rejected + expired + faulted + isolation-retried operations the
     *  engines counted. */
    std::size_t serve_failures = 0;
    /** Open-loop p50 latency (classify lo phase, decode TTFT) from which
     *  the layer pass subtracts model time to get the serve wait. */
    double latency_p50_ms = 0.0;
    /** Validity guards that tripped (the run is refused if any). */
    std::vector<std::string> invalid;
    /** Informational lines printed before the result. */
    std::vector<std::string> notes;

    void note(const char *fmt, ...) __attribute__((format(printf, 2, 3)));
};

/**
 * Compute threads of a workload's pool; with the one client thread the
 * process stays within nproc. The small-work workloads (classify_open,
 * decode_stream) run on one compute thread: on a shared 4-vCPU VM a
 * wider pool waits in every parallelFor region for whichever vCPU the
 * host preempted, and their latencies then moved 2x from run to run.
 * The large-work workloads use nproc - 1 threads, at most 3.
 */
std::size_t poolThreads(const std::string &workload);

/** Autotuner entries recorded so far (runtime::tuningReport()). */
std::size_t tuningEntries();

/**
 * Asserts no autotuner search lands inside a timed window: the tuning
 * table size is taken at construction and compared by check().
 */
class TuneGuard
{
  public:
    explicit TuneGuard(const char *window);
    void check(Outcome &out) const;

  private:
    const char *window_;
    std::size_t entries_;
};

/** Process high-water resident set in MiB (VmHWM). */
double peakRssMb();

/** The workloads (classify_open is runClassify at kClassifyRps). Each
 *  sets up kSetupReps times, measures for
 *  cfg.seconds, checks its outputs outside the timed windows and
 *  returns its end-to-end metrics (setup_s and peak_rss_mb included).
 *  With an enabled @p trace, spans go around every call into the
 *  engines and the model. */
Outcome runClassify(const RunConfig &cfg, double rate, Trace &trace);
Outcome runDecodeStream(const RunConfig &cfg, Trace &trace);
Outcome runLongContext(const RunConfig &cfg, Trace &trace);
Outcome runTrainStep(const RunConfig &cfg, Trace &trace);

/**
 * The traced run's per-layer metrics: serve/gen counters from short
 * traced open-loop phases of classify_open and decode_stream, then
 * spans around the public entry points of model, nn, butterfly,
 * tensor and runtime, replaying every workload's inputs for @p seed.
 */
Outcome runLayerPass(std::uint64_t seed, Trace &trace);

} // namespace fabbench

#endif // FABBENCH_BENCH_H
