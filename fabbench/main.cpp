/**
 * @file main.cpp
 * fabbench: the FABNet runtime benchmark.
 *
 *   fabbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--trace-out <file>]
 *
 * Prints informational lines, then as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones of the workload; with --trace 1 the
 * workload runs untraced and traced (the difference is printed as the
 * tracing overhead) and the metrics are the per-layer ones of the
 * layer pass. A run whose validity guards trip exits non-zero without
 * a result line. Usually started through run.py, which builds it.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "runtime/isa.h"
#include "runtime/parallel.h"

using namespace fabbench;

namespace {

const char *const kWorkloads[] = {"classify_open", "decode_stream",
                                  "long_context", "train_step"};

Outcome
runWorkload(const std::string &w, const RunConfig &cfg, Trace &trace)
{
    if (w == "classify_open")
        return runClassify(cfg, kClassifyRps, trace);
    if (w == "decode_stream")
        return runDecodeStream(cfg, trace);
    if (w == "long_context")
        return runLongContext(cfg, trace);
    return runTrainStep(cfg, trace);
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "fabbench: %s\nusage: fabbench --workload "
                 "<classify_open|decode_stream|long_context|train_step> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n",
                 why);
    return 2;
}

/** The build and environment this benchmark refuses to publish from. */
std::string
refusal()
{
    if (std::strcmp(FABBENCH_BUILD_TYPE, "Release") != 0)
        return std::string("build type is '") + FABBENCH_BUILD_TYPE +
               "', not Release";
#ifndef NDEBUG
    return "assertions are enabled (NDEBUG unset)";
#endif
    if (FABBENCH_NATIVE)
        return "the library was built with -march=native; numbers must "
               "come from the portable binary";
    if (std::getenv("FABNET_TUNE_CACHE"))
        return "FABNET_TUNE_CACHE is set; autotuner searches must be "
               "charged to setup_s";
    return "";
}

void
printNotes(const char *tag, const Outcome &o)
{
    for (const auto &n : o.notes)
        std::printf("fabbench:%s %s\n", tag, n.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_out;
    long long seed = -1;
    double seconds = 0.0;
    int traced = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            workload = v;
        else if (k == "--seed")
            seed = std::atoll(v);
        else if (k == "--seconds")
            seconds = std::atof(v);
        else if (k == "--trace")
            traced = std::atoi(v);
        else if (k == "--trace-out")
            trace_out = v;
        else
            return usage(("unknown argument " + k).c_str());
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known |= workload == w;
    if (!known)
        return usage(("unknown workload '" + workload + "'").c_str());
    if (seed < 0 || !(seconds >= 1.0) || (traced != 0 && traced != 1))
        return usage("--seed, --seconds (>= 1) and --trace (0|1) are "
                     "required");
    if (const std::string why = refusal(); !why.empty()) {
        std::fprintf(stderr, "fabbench: refusing to run: %s\n",
                     why.c_str());
        return 2;
    }

    const unsigned nproc = std::thread::hardware_concurrency();
    const std::size_t pool = poolThreads(workload);
    fabnet::runtime::setNumThreads(pool);
    std::printf("fabbench: workload=%s seed=%lld seconds=%g trace=%d "
                "isa=%s cpu_signature=\"%s\" pool_threads=%zu "
                "client_threads=1 nproc=%u\n",
                workload.c_str(), seed, seconds, traced,
                fabnet::runtime::isa(),
                fabnet::runtime::cpuSignature().c_str(), pool, nproc);
    if (nproc != 0 && pool + 1 > nproc)
        std::printf("fabbench: warning: pool threads + client thread "
                    "exceed nproc; numbers include oversubscription\n");

    RunConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.seconds = seconds;

    Trace off(false), on(traced == 1);
    Outcome result = runWorkload(workload, cfg, off);
    printNotes("", result);
    if (traced) {
        Outcome with_spans = runWorkload(workload, cfg, on);
        printNotes(" traced:", with_spans);
        for (const auto &m : result.metrics.rows()) {
            if (!with_spans.metrics.has(m.name))
                continue;
            const double t = with_spans.metrics.get(m.name);
            std::printf("fabbench: tracing overhead %s: untraced %.6g "
                        "traced %.6g %s (%+.1f%%)\n",
                        m.name.c_str(), m.value, t, m.unit,
                        100.0 * (t - m.value) / m.value);
        }
        Outcome layers = runLayerPass(cfg.seed, on);
        printNotes(" layers:", layers);
        // The result of a traced run is the per-layer table; every
        // operation of the three passes counts toward attempted/failed.
        Outcome total;
        for (const Outcome *o : {&result, &with_spans, &layers}) {
            total.attempted += o->attempted;
            total.failed += o->failed;
            total.invalid.insert(total.invalid.end(), o->invalid.begin(),
                                 o->invalid.end());
        }
        total.metrics = layers.metrics;
        result = std::move(total);
        if (!trace_out.empty()) {
            if (on.writeJson(trace_out))
                std::printf("fabbench: %zu spans written to %s\n",
                            on.spans().size(), trace_out.c_str());
            else
                std::printf("fabbench: could not write %s\n",
                            trace_out.c_str());
        }
    }

    for (const auto &m : result.metrics.rows())
        if (!std::isfinite(m.value))
            result.invalid.push_back("metric " + m.name +
                                     " is not finite");
    if (!result.invalid.empty()) {
        for (const auto &why : result.invalid)
            std::fprintf(stderr, "fabbench: run invalid: %s\n",
                         why.c_str());
        return 3;
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                result.failed == 0 ? "true" : "false", result.attempted,
                result.failed, result.metrics.json().c_str());
    return 0;
}
