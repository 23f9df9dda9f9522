/**
 * @file
 * Config-fuzzing CLI for the simulation core: random SwitchSpec x
 * traffic x seed x fault-set configurations run on the optimized
 * simulator and the naive oracle in lockstep. On a mismatch the
 * failing configuration is shrunk to a minimal reproducer and printed
 * as a ready-to-paste gtest case; the exit status is nonzero.
 *
 * With --mutate the oracle carries a deliberately seeded bug, proving
 * the harness detects arbiter bugs (pair with --expect-mismatch to
 * invert the exit status for CI).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/fuzz.hh"

using namespace hirise;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --configs N   number of random configs to run (default 200)\n"
        "  --seed S      PRNG seed for config sampling (default 1)\n"
        "  --threads N   worker threads for differential runs\n"
        "                (0 = shared pool default, 1 = serial)\n"
        "  --mutate M    seed an oracle bug: lrg-off-by-one |\n"
        "                clrg-halve-winner | islip-grant-ptr-stuck |\n"
        "                pim-reuse-round-rng | wavefront-stuck-priority |\n"
        "                isolation-threshold-off-by-one |\n"
        "                queue-id-off-by-one\n"
        "  --expect-mismatch  exit 0 iff a mismatch WAS found\n"
        "  --no-shrink   print the raw failing config, do not shrink\n"
        "  --verbose     describe every config as it runs\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    check::FuzzOptions opt;
    bool expect_mismatch = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--configs") {
            opt.configs = std::strtoull(next(), nullptr, 10);
        } else if (a == "--seed") {
            opt.seed = std::strtoull(next(), nullptr, 10);
        } else if (a == "--threads") {
            opt.threads = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (a == "--mutate") {
            std::string m = next();
            if (m == "lrg-off-by-one") {
                opt.mutation = check::Mutation::LrgUpdateOffByOne;
            } else if (m == "clrg-halve-winner") {
                opt.mutation = check::Mutation::ClrgHalveWinnerOnly;
            } else if (m == "islip-grant-ptr-stuck") {
                opt.mutation = check::Mutation::IslipGrantPtrStuck;
            } else if (m == "pim-reuse-round-rng") {
                opt.mutation = check::Mutation::PimReuseRoundRng;
            } else if (m == "wavefront-stuck-priority") {
                opt.mutation = check::Mutation::WavefrontStuckPriority;
            } else if (m == "isolation-threshold-off-by-one") {
                opt.mutation =
                    check::Mutation::IsolationThresholdOffByOne;
            } else if (m == "queue-id-off-by-one") {
                opt.mutation = check::Mutation::QueueIdOffByOne;
            } else {
                std::fprintf(stderr, "unknown mutation '%s'\n",
                             m.c_str());
                usage(argv[0]);
                return 2;
            }
        } else if (a == "--expect-mismatch") {
            expect_mismatch = true;
        } else if (a == "--no-shrink") {
            opt.shrinkOnFailure = false;
        } else if (a == "--verbose") {
            opt.verbose = true;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    check::FuzzReport rep = check::runFuzz(opt);

    if (!rep.mismatchFound) {
        std::printf("fuzz_sim: %llu configs clean (seed %llu%s%s)\n",
                    static_cast<unsigned long long>(rep.configsRun),
                    static_cast<unsigned long long>(opt.seed),
                    opt.mutation != check::Mutation::None
                        ? ", mutation "
                        : "",
                    opt.mutation != check::Mutation::None
                        ? check::toString(opt.mutation)
                        : "");
        return expect_mismatch ? 1 : 0;
    }

    std::printf("fuzz_sim: mismatch after %llu config(s)\n",
                static_cast<unsigned long long>(rep.configsRun));
    std::printf("config:  %s\n", check::describe(rep.failing).c_str());
    std::printf("detail:  %s (cycle %llu)\n",
                rep.outcome.detail.c_str(),
                static_cast<unsigned long long>(
                    rep.outcome.mismatchCycle));
    std::printf("--- minimal repro: paste into tests/check_test.cc ---\n"
                "%s"
                "------------------------------------------------------\n",
                rep.repro.c_str());
    return expect_mismatch ? 0 : 1;
}
