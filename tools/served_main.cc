/**
 * @file
 * hirise_served — the persistent campaign daemon (docs/SERVICE.md).
 *
 *   hirise_served [--socket PATH] [--tcp PORT] [--snapshot-dir DIR]
 *                 [--shard N] [--max-queue N]
 *
 * Listens on a unix socket (default $HIRISE_SVC_SOCKET, else
 * /tmp/hirise_served.sock) for framed JSON requests from
 * campaign_client, runs campaigns through the shared thread pool and
 * SimCache (enable the disk tier with HIRISE_SIMCACHE_DIR to survive
 * restarts), and streams results back incrementally. SIGINT/SIGTERM
 * trigger a graceful shutdown: in-flight points drain, queued jobs
 * are cancelled, subscribers get their final frames.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

#include "svc/server.hh"

namespace {

// Signal handlers may only touch this fd (write() is
// async-signal-safe; Server::shutdown() is not).
volatile sig_atomic_t g_wake_fd = -1;

void
onSignal(int)
{
    if (g_wake_fd >= 0) {
        char b = 'Q';
        [[maybe_unused]] ssize_t n =
            ::write(static_cast<int>(g_wake_fd), &b, 1);
    }
}

const char *
envOr(const char *name, const char *dflt)
{
    const char *v = std::getenv(name);
    return v && *v ? v : dflt;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--socket PATH] [--tcp PORT] [--snapshot-dir DIR]\n"
        "          [--shard N] [--max-queue N]\n"
        "  --socket PATH    unix socket (default $HIRISE_SVC_SOCKET\n"
        "                   or /tmp/hirise_served.sock)\n"
        "  --tcp PORT       also listen on 127.0.0.1:PORT (-1 for an\n"
        "                   ephemeral port, printed on startup)\n"
        "  --snapshot-dir D per-point checkpoint snapshots for specs\n"
        "                   with checkpoint_cycles > 0\n"
        "  --shard N        points per streaming shard\n"
        "                   (default $HIRISE_SVC_SHARD or 16)\n"
        "  --max-queue N    queued-job cap (default 64)\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hirise;

    svc::ServerOptions opt;
    opt.socketPath =
        envOr("HIRISE_SVC_SOCKET", "/tmp/hirise_served.sock");
    if (const char *s = std::getenv("HIRISE_SVC_SHARD"))
        opt.shardPoints = std::strtoul(s, nullptr, 10);

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--socket") {
            opt.socketPath = value("--socket");
        } else if (a == "--tcp") {
            opt.tcpPort = std::atoi(value("--tcp"));
        } else if (a == "--snapshot-dir") {
            opt.snapshotDir = value("--snapshot-dir");
        } else if (a == "--shard") {
            opt.shardPoints =
                std::strtoul(value("--shard"), nullptr, 10);
        } else if (a == "--max-queue") {
            opt.maxQueuedJobs =
                std::strtoul(value("--max-queue"), nullptr, 10);
        } else if (a == "--help" || a == "-h") {
            return usage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
            return usage(argv[0]);
        }
    }

    svc::Server server(opt);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "hirise_served: %s\n", err.c_str());
        return 1;
    }

    g_wake_fd = server.wakeFd();
    struct sigaction sa{};
    sa.sa_handler = onSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    std::printf("hirise_served: listening on %s\n",
                server.socketPath().c_str());
    if (server.port() > 0)
        std::printf("hirise_served: tcp 127.0.0.1:%d\n",
                    server.port());
    if (sim::SimCache::global().diskEnabled() && !opt.cache)
        std::printf("hirise_served: disk cache %s\n",
                    sim::SimCache::global().diskDir().c_str());
    std::fflush(stdout);

    server.run();
    std::printf("hirise_served: drained, exiting\n");
    return 0;
}
