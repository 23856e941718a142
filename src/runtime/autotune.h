/**
 * @file autotune.h
 * Small empirical autotuner for the GEMM panels.
 *
 * The dispatch table (dispatch.h) fixes WHICH instructions run; this
 * module picks the free parameters the ISA doesn't determine: the
 * register-tile shape (GemmPlan::mk, an index into kGemmKernels) and
 * the parallelFor row grain, per (dtype, m, k, n, thread-count). Both
 * knobs partition work without touching any output's k-ascending
 * accumulation chain, so every plan is bitwise identical - the tuner
 * is free to choose by measured speed alone, and a cached plan can
 * never change results.
 *
 * On the first request for a (shape, threads) key the tuner times the
 * candidate tiles/grains against the installed dispatch table on
 * scratch operands (a few ms, once per shape; shapes too small to
 * matter skip the search and use the default plan). The row dimension
 * is bucketed to the next power of two (capped) in the key: m is the
 * batch/ragged axis and jitters with every batch composition, and
 * per-exact-m searches would re-tune - and stall serving - on each
 * new composition; nearby row counts share one plan. Results live in a
 * process-wide cache, optionally persisted to the file named by
 * FABNET_TUNE_CACHE. The file is keyed by CPU signature + build hash
 * + ISA: a cache written by a different machine, build, or forced ISA
 * level is ignored (with a stderr note), never silently replayed.
 *
 * Environment:
 *   FABNET_AUTOTUNE=off|0   disable searching (defaults + any entries
 *                           loaded from the cache file still apply);
 *                           on|1 is the default, any other value keeps
 *                           it with one stderr line
 *   FABNET_TUNE_CACHE=path  load the cache at startup, append new
 *                           entries as they are tuned
 */
#ifndef FABNET_RUNTIME_AUTOTUNE_H
#define FABNET_RUNTIME_AUTOTUNE_H

#include <cstddef>
#include <string>

namespace fabnet {
namespace runtime {

/** Tuned execution parameters for one GEMM family/shape/threads. */
struct GemmPlan
{
    /** kGemmKernels index (register-tile shape). */
    int mk;
    /** parallelFor grain in C rows. */
    std::size_t grain;
};

/** Plan for the fp32 panel (ops::matmul, dense, transposed). */
GemmPlan planGemmF32(std::size_t m, std::size_t k, std::size_t n);

/** Plan for the fp16 panel (fp32 tile + binary16 row epilogue). */
GemmPlan planGemmF16(std::size_t m, std::size_t k, std::size_t n);

/** Plan for the int8 panel (tile shape fixed by the packed layout;
 *  only the grain is tuned). */
GemmPlan planGemmInt8(std::size_t m, std::size_t k, std::size_t n);

/** True unless FABNET_AUTOTUNE is off or 0. Values other than
 *  on/1/off/0 keep the default (on) with one stderr line. */
bool autotuneEnabled();

/**
 * JSON object describing the tuning state: active isa, cpu signature,
 * build hash, and every cached entry with its chosen tile/grain and
 * measured rate. Surfaced through ServingEngine::stats() and embedded
 * in the bench JSONs.
 */
std::string tuningReport();

/**
 * Load / save the tuning cache explicitly (the FABNET_TUNE_CACHE
 * plumbing calls these; tests drive them directly). load returns
 * false and leaves the cache untouched when the file is missing or
 * its header doesn't match this host+build+isa; save rewrites the
 * whole file. An entry line that does not parse whole - wrong field
 * count, trailing text, a sign, a zero size/threads/grain, an unknown
 * tile or a non-finite rate - is skipped.
 */
bool loadTuneCache(const std::string &path);
bool saveTuneCache(const std::string &path);

/** Drop every cached entry and forget the environment wiring, so the
 *  next call re-reads FABNET_AUTOTUNE / FABNET_TUNE_CACHE (tests only -
 *  plans re-tune afterwards). */
void resetTuneCacheForTest();

} // namespace runtime
} // namespace fabnet

#endif // FABNET_RUNTIME_AUTOTUNE_H
