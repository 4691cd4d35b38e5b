#include "eval/cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/ledger.hh"
#include "obs/obs.hh"

namespace sieve::eval {

namespace {

/** Parse the value of --flag, either "--flag=V" or the next argv. */
std::string
flagValue(std::string_view flag, std::string_view arg, int argc,
          char **argv, int &i)
{
    size_t eq = arg.find('=');
    if (eq != std::string_view::npos)
        return std::string(arg.substr(eq + 1));
    if (i + 1 >= argc)
        fatal("missing value for ", flag);
    return argv[++i];
}

size_t
parseCount(std::string_view flag, const std::string &value)
{
    char *end = nullptr;
    long parsed = std::strtol(value.c_str(), &end, 10);
    if (!end || *end != '\0' || parsed <= 0)
        fatal(flag, " expects a positive integer, got '", value, "'");
    return static_cast<size_t>(parsed);
}

double
parseReal(std::string_view flag, const std::string &value)
{
    char *end = nullptr;
    double parsed = std::strtod(value.c_str(), &end);
    if (!end || *end != '\0' || !(parsed > 0.0))
        fatal(flag, " expects a positive number, got '", value, "'");
    return parsed;
}

} // namespace

BenchOptions
parseBenchArgs(int argc, char **argv, std::string_view usage)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [options]%s%.*s\n"
                "  --jobs N          worker threads (default: "
                "SIEVE_JOBS env, else hardware concurrency; "
                "1 = serial)\n"
                "  --theta X         Sieve stratification threshold\n"
                "  --top N           limit detail rows (inspector "
                "tools)\n"
                "  --trace-out FILE  write a Chrome trace of the run "
                "(env: SIEVE_TRACE)\n"
                "  --metrics-out F   write pipeline metrics as JSON, "
                "or CSV for *.csv (env: SIEVE_METRICS)\n"
                "  --ledger F        append a run manifest to F at "
                "exit (env: SIEVE_LEDGER)\n"
                "  --telemetry       sample counter tracks into the "
                "trace (needs --trace-out; env: SIEVE_TELEMETRY)\n"
                "  --telemetry-interval-ms N  sampling period, "
                "default 25 (env: SIEVE_TELEMETRY_INTERVAL_MS)\n"
                "  --log-level L     quiet|warn|info|debug (env: "
                "SIEVE_LOG_LEVEL)\n"
                "  NAME...           restrict to the named workloads\n"
                "Table output is byte-identical for every --jobs "
                "value;\nso are the stable counters in the metrics "
                "export.\n",
                argv[0], usage.empty() ? "" : "\n  ",
                static_cast<int>(usage.size()), usage.data());
            std::exit(0);
        } else if (arg.rfind("--jobs", 0) == 0) {
            opts.jobs = parseCount(
                "--jobs", flagValue("--jobs", arg, argc, argv, i));
        } else if (arg.rfind("--theta", 0) == 0) {
            opts.theta = parseReal(
                "--theta", flagValue("--theta", arg, argc, argv, i));
        } else if (arg.rfind("--trace-out", 0) == 0) {
            opts.traceOut =
                flagValue("--trace-out", arg, argc, argv, i);
        } else if (arg.rfind("--metrics-out", 0) == 0) {
            opts.metricsOut =
                flagValue("--metrics-out", arg, argc, argv, i);
        } else if (arg.rfind("--ledger", 0) == 0) {
            opts.ledgerOut =
                flagValue("--ledger", arg, argc, argv, i);
        } else if (arg.rfind("--telemetry-interval-ms", 0) == 0) {
            opts.telemetryIntervalMs = parseCount(
                "--telemetry-interval-ms",
                flagValue("--telemetry-interval-ms", arg, argc, argv,
                          i));
        } else if (arg == "--telemetry") {
            opts.telemetry = true;
        } else if (arg.rfind("--log-level", 0) == 0) {
            std::string value =
                flagValue("--log-level", arg, argc, argv, i);
            auto level = parseLogLevel(value);
            if (!level)
                fatal("--log-level expects quiet|warn|info|debug, "
                      "got '", value, "'");
            setLogLevel(*level);
        } else if (arg.rfind("--top", 0) == 0) {
            opts.topN = parseCount(
                "--top", flagValue("--top", arg, argc, argv, i));
        } else if (arg.rfind("--", 0) == 0) {
            fatal("unknown option '", arg, "' (see --help)");
        } else {
            opts.positional.emplace_back(arg);
        }
    }

    // Record the invocation identity for the run ledger before the
    // tool does any work, so the manifest's wall time covers the
    // whole run.
    {
        std::string command = argv[0];
        size_t slash = command.find_last_of('/');
        if (slash != std::string::npos)
            command.erase(0, slash + 1);
        std::vector<std::string> args(argv + 1, argv + argc);
        obs::setRunContext(std::move(command), std::move(args),
                           static_cast<int>(opts.jobs));
    }

    // Arm observability: env first, explicit flags override.
    obs::configureObsFromEnv();
    if (!opts.traceOut.empty() || !opts.metricsOut.empty() ||
        !opts.ledgerOut.empty() || opts.telemetry) {
        obs::ObsOptions obs_opts;
        obs_opts.traceOut = opts.traceOut;
        obs_opts.metricsOut = opts.metricsOut;
        obs_opts.ledgerOut = opts.ledgerOut;
        obs_opts.telemetry = opts.telemetry;
        obs_opts.telemetryIntervalMs = opts.telemetryIntervalMs;
        obs::configureObs(obs_opts);
    }
    return opts;
}

std::vector<workloads::WorkloadSpec>
filterSpecs(std::vector<workloads::WorkloadSpec> specs,
            const std::vector<std::string> &names)
{
    if (names.empty())
        return specs;

    for (const auto &name : names) {
        bool known = std::any_of(
            specs.begin(), specs.end(),
            [&](const workloads::WorkloadSpec &s) {
                return s.name == name ||
                       s.suite + "/" + s.name == name;
            });
        if (!known)
            fatal("workload '", name, "' is not in this suite");
    }

    std::vector<workloads::WorkloadSpec> kept;
    for (auto &spec : specs) {
        bool wanted = std::any_of(
            names.begin(), names.end(), [&](const std::string &n) {
                return spec.name == n ||
                       spec.suite + "/" + spec.name == n;
            });
        if (wanted)
            kept.push_back(std::move(spec));
    }
    return kept;
}

} // namespace sieve::eval
