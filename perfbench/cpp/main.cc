/**
 * @file
 * xpc_perfbench: runs one workload for a host-time budget and prints
 * one JSON document of raw measurements (per-rep host timings, the
 * simulated results, the summed stat registry, seam self times).
 * perfbench/run.py turns it into the benchmark's metrics.
 *
 *   xpc_perfbench --workload ycsb|xcall|mesh --seed N --seconds S
 *                 [--trace 0|1] [--reps N] [--spans FILE]
 *
 * Reps repeat until --seconds have passed (at least three, or four
 * when tracing, whose reps alternate untraced and traced); --reps
 * fixes the count instead.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace {

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "xpc_perfbench: %s\nusage: xpc_perfbench --workload "
                 "ycsb|xcall|mesh --seed N --seconds S [--trace 0|1] "
                 "[--reps N] [--spans FILE]\n",
                 why);
    std::exit(2);
}

template <typename M>
void
writeMap(std::ostream &os, const M &m)
{
    os << "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        os << (first ? "" : ", ") << "\"" << k << "\": " << num(double(v));
        first = false;
    }
    os << "}";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    uint64_t fixed_reps = 0;
    std::string spans_path;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            seconds = std::atof(v);
        else if (a == "--trace")
            trace = std::strcmp(v, "0") != 0;
        else if (a == "--reps")
            fixed_reps = std::strtoull(v, nullptr, 10);
        else if (a == "--spans")
            spans_path = v;
        else
            usage(("unknown option " + a).c_str());
    }
    RepResult (*run)(const RepConfig &) = nullptr;
    if (workload == "ycsb")
        run = runYcsb;
    else if (workload == "xcall")
        run = runXcall;
    else if (workload == "mesh")
        run = runMesh;
    else
        usage("unknown workload");

    // Only a summary of each rep is kept, so memory does not grow with
    // the number of reps a fast host fits into --seconds.
    struct Summary
    {
        bool traced = false;
        RepResult rep;
        double opP50 = 0, opP98 = 0;
        size_t opN = 0;
        std::map<std::string, double> kindP50;
    };
    const size_t min_reps = trace ? 4 : 3;
    SpanLog spans;
    std::vector<Summary> reps;
    auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    while (fixed_reps ? reps.size() < fixed_reps
                      : reps.size() < min_reps || elapsed() < seconds) {
        RepConfig cfg;
        cfg.seed = seed;
        Summary s;
        s.traced = trace && reps.size() % 2 == 1;
        cfg.spans = s.traced ? &spans : nullptr;
        s.rep = run(cfg);
        s.opP50 = percentile(s.rep.opUs, 0.5);
        s.opP98 = percentile(s.rep.opUs, 0.98);
        s.opN = s.rep.opUs.size();
        for (const auto &[k, v] : s.rep.opUsByKind)
            s.kindP50[k] = percentile(v, 0.5);
        s.rep.opUs = std::vector<double>();
        s.rep.opUsByKind = {};
        if (!reps.empty())
            s.rep.registry = {};
        reps.push_back(std::move(s));
    }

    if (!spans_path.empty()) {
        std::ofstream out(spans_path);
        spans.writeJson(out);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const RepResult &first = reps.front().rep;
    std::ostream &os = std::cout;
    os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
       << ", \"peak_rss_mb\": " << num(double(ru.ru_maxrss) / 1024.0)
       << ",\n \"reps\": [";
    for (size_t i = 0; i < reps.size(); i++) {
        const RepResult &r = reps[i].rep;
        char digest[24];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      (unsigned long long)r.digest);
        os << (i ? ",\n  " : "\n  ") << "{\"traced\": "
           << (reps[i].traced ? "true" : "false")
           << ", \"setup_s\": " << num(r.setupS)
           << ", \"measured_s\": " << num(r.measuredS)
           << ", \"ops\": " << r.ops << ", \"failed\": " << r.failed
           << ", \"sim_cycles\": " << r.simCycles << ", \"digest\": \""
           << digest << "\", \"op_us_p50\": " << num(reps[i].opP50)
           << ", \"op_us_p98\": " << num(reps[i].opP98)
           << ", \"op_us_n\": " << reps[i].opN << ", \"kind_us_p50\": ";
        writeMap(os, reps[i].kindP50);
        os << ", \"self_ns\": ";
        writeMap(os, r.selfNs);
        os << ", \"app_rpcs\": " << r.appRpcs << "}";
    }
    os << "],\n \"sim\": {\"speedup\": " << num(first.simSpeedup)
       << ", \"op_cycles_p50\": " << num(first.simOpP50)
       << ", \"op_cycles_p98\": " << num(first.simOpP98)
       << ", \"op_samples\": " << first.simOpSamples << "},\n \"registry\": ";
    writeMap(os, first.registry);
    os << "}\n";
    return 0;
}
