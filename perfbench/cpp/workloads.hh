/**
 * @file
 * The benchmark's three workloads. Each call of a run function is one
 * repetition ("rep"): it builds its own systems from the seed (timed as
 * set-up), warms the modelled caches, resets every stat registry, runs
 * a fixed measured phase while timing each op on the host, checks the
 * outputs and reads the registries back. A rep is a pure function of
 * the seed in simulated terms, so every rep of a run (traced or not)
 * must produce the same digest.
 */

#ifndef XPC_PERFBENCH_WORKLOADS_HH
#define XPC_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "seam.hh"

namespace perfbench {

/** Registry values by dotted path: counters, plus "#count"/"#sum" of
 *  every Distribution and "#hcount"/"#hsum" of every Histogram. */
using Flat = std::map<std::string, double>;

struct RepConfig
{
    uint64_t seed = 1;
    /** Non-null: route clients and services through TracingTransport
     *  and record seam spans of the measured phase here. */
    SpanLog *spans = nullptr;
};

struct RepResult
{
    double setupS = 0;    ///< host seconds to build and load the rigs
    double measuredS = 0; ///< host seconds of the measured phase
    uint64_t ops = 0;     ///< ops (YCSB ops, round trips, requests)
    uint64_t failed = 0;  ///< ops whose output check failed
    uint64_t simCycles = 0; ///< simulated cycles of the measured phase

    /** Host microseconds per op. The mesh has no seam inside
     *  LoadGen::run, so it contributes one sample: run time over
     *  requests. */
    std::vector<double> opUs;
    /** Host microseconds per op by kind: the YCSB op ("read", ...),
     *  or the system on xcall ("seL4-XPC", ...). */
    std::map<std::string, std::vector<double>> opUsByKind;
    /** Simulated cycles per op on the seL4-XPC system: median, 98th
     *  percentile and the number of ops they are taken over. */
    double simOpP50 = 0;
    double simOpP98 = 0;
    uint64_t simOpSamples = 0;

    /** Simulated speedup of the paper figure the workload mirrors
     *  (0 on the mesh, which mirrors none). */
    double simSpeedup = 0;

    /** Registry values summed over the workload's systems. */
    Flat registry;
    /** FNV-1a over per-op simulated cycles and every registry value. */
    uint64_t digest = 0;

    /** Traced reps: seam self time (ns) per span name, and the calls
     *  the app ops made themselves (SpanLog::fold). */
    std::map<std::string, double> selfNs;
    uint64_t appRpcs = 0;
};

/** Linearly interpolated @p q quantile of @p v (0 when empty). */
double percentile(std::vector<double> v, double q);

RepResult runYcsb(const RepConfig &cfg);
RepResult runXcall(const RepConfig &cfg);
RepResult runMesh(const RepConfig &cfg);

} // namespace perfbench

#endif // XPC_PERFBENCH_WORKLOADS_HH
