/**
 * @file
 * sieve_perfbench: run one benchmark workload and print its metrics.
 *
 *   sieve_perfbench --workload suite-eval --seed 0 --seconds 15 --trace 0
 *
 * Human-readable notes (fingerprint, outcome digest, sample counts,
 * self-time tables) go to stdout first; the last line is the result
 * JSON with exactly the keys correct, attempted, failed and metrics.
 * The full record is also written to <out-dir>/record-<workload>-
 * seed<seed>-trace<0|1>.json for perfbench/compare.py.
 */

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "common/strings.hh"
#include "harness.hh"

namespace {

constexpr int kGlibcDefaultMmapThreshold = 128 * 1024;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "sieve_perfbench: %s\n"
                 "usage: sieve_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR] "
                 "[--out-dir DIR] [--commit ID]\n"
                 "workloads: suite-eval stream-sieve rep-sim serve-mix\n",
                 why);
    return 2;
}

bool
parseCount(const std::string &text, uint64_t &out)
{
    return sieve::parseUint64(text, out) == sieve::NumericParse::Ok;
}

} // namespace

int
main(int argc, char **argv)
{
    // A fixed allocator policy, so that identical runs do the same
    // memory work. Left dynamic, glibc raises its mmap threshold after
    // the first free of a large block, at a point that depends on
    // thread timing: identical runs either reused large buffers or
    // faulted them in afresh, page faults per run varied threefold and
    // pass times by 30%. Pinned at its default, every large buffer is
    // mapped and faulted in on each allocation, as in a fresh process.
    // The heap is never trimmed back, so small blocks are not returned
    // and faulted in again at a rate that depends on timing too.
    ::mallopt(M_MMAP_THRESHOLD, kGlibcDefaultMmapThreshold);
    ::mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    // One arena for every thread. glibc gives a thread its own arena
    // when it finds the others locked, so how many arenas serve-mix's
    // client, event loop and pool worker made depended on timing, and
    // identical runs peaked at 66 or 72 MB. One thread at a time is
    // busy, so the shared arena costs no waiting.
    ::mallopt(M_ARENA_MAX, 1);

    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        uint64_t n = 0;
        double d = 0.0;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed" && parseCount(value, n)) {
            opts.seed = n;
        } else if (flag == "--seconds" &&
                   sieve::parseDouble(value, d) == sieve::NumericParse::Ok &&
                   d > 0.0 && d <= 3600.0) {
            opts.seconds = d;
        } else if (flag == "--trace" && (value == "0" || value == "1")) {
            opts.trace = value == "1";
        } else if (flag == "--work-dir") {
            opts.workDir = value;
        } else if (flag == "--out-dir") {
            opts.outDir = value;
        } else if (flag == "--commit") {
            opts.commit = value;
        } else {
            return usage(("bad flag or value: " + flag + " " + value).c_str());
        }
    }
    std::unique_ptr<perfbench::BenchWorkload> workload =
        perfbench::makeWorkload(opts.workload);
    if (!workload)
        return usage(("unknown workload '" + opts.workload + "'").c_str());

    try {
        std::filesystem::create_directories(opts.outDir);
        perfbench::RunReport report = perfbench::runBenchmark(*workload, opts);
        for (const std::string &line : report.notes)
            std::printf("%s\n", line.c_str());
        std::string record = opts.outDir + "/record-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + "-trace" +
                             (opts.trace ? "1" : "0") + ".json";
        std::ofstream(record) << perfbench::recordJson(report);
        std::printf("record written to %s\n", record.c_str());
        std::printf("%s\n", perfbench::resultJson(report).c_str());
        std::fflush(stdout);
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "sieve_perfbench: %s\n", ex.what());
        return 1;
    }
    return 0;
}
