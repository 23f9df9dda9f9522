#include "svc/server.hh"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hh"
#include "svc/json.hh"

namespace hirise::svc {

namespace {

/** Stop pumping rows into a connection's output buffer past this
 *  point; the rows stay in the job and flow resumes as the socket
 *  drains (slow readers throttle themselves, not the daemon). */
constexpr std::size_t kSoftOutCap = std::size_t(1) << 20;

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Resolved once, like the arbiters' counters: sendRaw runs for
 *  every streamed row frame, and a by-name lookup takes the registry
 *  mutex. */
obs::Counter &
bytesStreamedCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("svc.bytes_streamed");
    return c;
}

Json
errorResponse(const std::string &msg)
{
    Json r = Json::object();
    r.set("ok", false);
    r.set("error", msg);
    return r;
}

} // namespace

Server::Server(ServerOptions opt) : opt_(std::move(opt)) {}

Server::~Server()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopDispatcher_ = true;
        if (running_)
            running_->cancel.store(true);
    }
    cv_.notify_all();
    if (dispatcher_.joinable())
        dispatcher_.join();
    for (auto &c : conns_) {
        if (c->fd >= 0)
            ::close(c->fd);
    }
    if (unixFd_ >= 0) {
        ::close(unixFd_);
        ::unlink(opt_.socketPath.c_str());
    }
    if (tcpFd_ >= 0)
        ::close(tcpFd_);
    if (wakeR_ >= 0)
        ::close(wakeR_);
    if (wakeW_ >= 0)
        ::close(wakeW_);
}

bool
Server::start(std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg + ": " + std::strerror(errno);
        if (unixFd_ >= 0) {
            ::close(unixFd_);
            unixFd_ = -1;
            ::unlink(opt_.socketPath.c_str());
        }
        if (tcpFd_ >= 0) {
            ::close(tcpFd_);
            tcpFd_ = -1;
        }
        if (wakeR_ >= 0) {
            ::close(wakeR_);
            wakeR_ = -1;
        }
        if (wakeW_ >= 0) {
            ::close(wakeW_);
            wakeW_ = -1;
        }
        return false;
    };

    if (opt_.socketPath.empty()) {
        if (err)
            *err = "socket path required";
        return false;
    }

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt_.socketPath.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = "socket path too long: " + opt_.socketPath;
        return false;
    }
    std::memcpy(addr.sun_path, opt_.socketPath.c_str(),
                opt_.socketPath.size() + 1);

    unixFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unixFd_ < 0)
        return fail("socket(AF_UNIX)");
    ::unlink(opt_.socketPath.c_str()); // replace a stale socket file
    if (::bind(unixFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind(" + opt_.socketPath + ")");
    if (::listen(unixFd_, 64) != 0)
        return fail("listen(" + opt_.socketPath + ")");
    if (!setNonBlocking(unixFd_))
        return fail("fcntl(unix listen)");

    if (opt_.tcpPort != 0) {
        tcpFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcpFd_ < 0)
            return fail("socket(AF_INET)");
        int one = 1;
        ::setsockopt(tcpFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in in{};
        in.sin_family = AF_INET;
        in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        in.sin_port =
            htons(opt_.tcpPort > 0
                      ? static_cast<std::uint16_t>(opt_.tcpPort)
                      : 0);
        if (::bind(tcpFd_, reinterpret_cast<sockaddr *>(&in),
                   sizeof(in)) != 0)
            return fail("bind(tcp)");
        if (::listen(tcpFd_, 64) != 0)
            return fail("listen(tcp)");
        if (!setNonBlocking(tcpFd_))
            return fail("fcntl(tcp listen)");
        sockaddr_in bound{};
        socklen_t blen = sizeof(bound);
        if (::getsockname(tcpFd_, reinterpret_cast<sockaddr *>(&bound),
                          &blen) == 0)
            tcpPort_ = ntohs(bound.sin_port);
    }

    int pipefd[2];
    if (::pipe(pipefd) != 0)
        return fail("pipe");
    wakeR_ = pipefd[0];
    wakeW_ = pipefd[1];
    setNonBlocking(wakeR_);
    setNonBlocking(wakeW_);

    dispatcher_ = std::thread([this] { dispatcherLoop(); });
    started_ = true;
    return true;
}

void
Server::wake()
{
    if (wakeW_ >= 0) {
        char b = 'w';
        [[maybe_unused]] ssize_t n = ::write(wakeW_, &b, 1);
    }
}

void
Server::shutdown()
{
    shutdownReq_.store(true);
    wake();
}

const char *
Server::stateName(Job::State s)
{
    switch (s) {
      case Job::State::Queued: return "queued";
      case Job::State::Running: return "running";
      case Job::State::Done: return "done";
      case Job::State::Cancelled: return "cancelled";
      case Job::State::Failed: return "failed";
    }
    return "?";
}

void
Server::updateQueueMetrics()
{
    auto &m = obs::MetricsRegistry::global();
    m.gauge("svc.queue_depth").set(double(queue_.size()));
    m.gauge("svc.worker_busy").set(running_ ? 1.0 : 0.0);
    sim::SimCache &cache =
        opt_.cache ? *opt_.cache : sim::SimCache::global();
    m.gauge("svc.cache_hit_rate").set(cache.stats().hitRate());
}

void
Server::dispatcherLoop()
{
    auto &m = obs::MetricsRegistry::global();
    while (true) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] {
                return stopDispatcher_ || !queue_.empty();
            });
            if (stopDispatcher_ && queue_.empty())
                return;
            job = queue_.front();
            queue_.pop_front();
            if (job->state == Job::State::Cancelled) {
                updateQueueMetrics();
                continue;
            }
            job->state = Job::State::Running;
            running_ = job;
            dispatcherIdle_.store(false);
            updateQueueMetrics();
        }
        wake();

        RunCampaignOptions ro;
        ro.cache = opt_.cache;
        ro.snapshotDir = opt_.snapshotDir;
        ro.shardPoints = opt_.shardPoints;
        ro.cancelled = [this, job] {
            return job->cancel.load() || stopDispatcher_;
        };
        ro.onRows = [this, job, &m](std::size_t first,
                                    std::vector<std::string> rows) {
            (void)first;
            {
                std::lock_guard<std::mutex> lk(mu_);
                for (auto &r : rows)
                    job->rows.push_back(std::move(r));
                job->pointsDone = job->rows.size();
                m.gauge("svc.points_inflight")
                    .set(double(std::min(
                        opt_.shardPoints ? opt_.shardPoints
                                         : kDefaultShardPoints,
                        job->pointsTotal - job->pointsDone)));
            }
            wake();
        };

        CampaignOutcome out = runCampaign(job->spec, ro);
        {
            std::lock_guard<std::mutex> lk(mu_);
            job->cacheDelta = out.cacheDelta;
            job->state = out.cancelled ? Job::State::Cancelled
                                       : Job::State::Done;
            running_.reset();
            dispatcherIdle_.store(true);
            m.gauge("svc.points_inflight").set(0.0);
            m.counter("svc.jobs_done").inc();
            updateQueueMetrics();
        }
        wake();
    }
}

std::shared_ptr<Server::Job>
Server::findJob(const std::string &id)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto &j : jobs_) {
        if (j->id == id)
            return j;
    }
    return nullptr;
}

void
Server::sendRaw(Conn &c, std::string_view payload)
{
    frameAppend(c.out, payload);
    bytesStreamedCounter().inc(payload.size() + 4);
}

void
Server::reply(Conn &c, const Json &resp)
{
    sendRaw(c, resp.dump());
}

void
Server::opSubmit(Conn &c, const Json &req)
{
    const Json &specDoc = req["spec"];
    if (!specDoc.isObject()) {
        reply(c, errorResponse("submit: 'spec' object required"));
        return;
    }
    CampaignSpec spec;
    std::string perr;
    if (!parseCampaignSpec(specDoc, &spec, &perr)) {
        reply(c, errorResponse("bad spec: " + perr));
        return;
    }

    auto job = std::make_shared<Job>();
    job->spec = std::move(spec);
    job->pointsTotal = job->spec.points().size();
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (draining_) {
            reply(c, errorResponse("daemon is shutting down"));
            return;
        }
        if (queue_.size() >= opt_.maxQueuedJobs) {
            reply(c, errorResponse("queue full"));
            return;
        }
        char id[48];
        std::snprintf(id, sizeof(id), "%016llx-%llu",
                      static_cast<unsigned long long>(
                          job->spec.hash()),
                      static_cast<unsigned long long>(nextSeq_++));
        job->id = id;
        jobs_.push_back(job);
        queue_.push_back(job);
        obs::MetricsRegistry::global()
            .counter("svc.jobs_submitted")
            .inc();
        updateQueueMetrics();
    }
    cv_.notify_one();

    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("id", job->id);
    resp.set("points", double(job->pointsTotal));
    reply(c, resp);

    if (req["stream"].asBool()) {
        c.sub = job;
        c.subNext = 0;
    }
}

void
Server::opResults(Conn &c, const Json &req)
{
    const Json &id = req["id"];
    if (!id.isString()) {
        reply(c, errorResponse("results: 'id' required"));
        return;
    }
    std::shared_ptr<Job> job = findJob(id.asString());
    if (!job) {
        reply(c, errorResponse("no such job: " + id.asString()));
        return;
    }
    double from = req["from"].asNumber(0.0);
    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("id", job->id);
    resp.set("points", double(job->pointsTotal));
    reply(c, resp);
    c.sub = job;
    c.subNext = from > 0 ? std::size_t(from) : 0;
}

void
Server::opStatus(Conn &c)
{
    sim::SimCache &cache =
        opt_.cache ? *opt_.cache : sim::SimCache::global();
    Json resp = Json::object();
    resp.set("ok", true);

    Json jobsArr = Json::array();
    std::size_t queueDepth = 0;
    bool busy = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        queueDepth = queue_.size();
        busy = running_ != nullptr;
        for (const auto &j : jobs_) {
            Json row = Json::object();
            row.set("id", j->id);
            row.set("name", j->spec.name);
            row.set("state", stateName(j->state));
            row.set("points", double(j->pointsTotal));
            row.set("done", double(j->pointsDone));
            if (j->state == Job::State::Done ||
                j->state == Job::State::Cancelled) {
                row.set("cache_hits", double(j->cacheDelta.hits));
                row.set("cache_misses",
                        double(j->cacheDelta.misses));
                row.set("hit_rate", j->cacheDelta.hitRate());
            }
            jobsArr.push(std::move(row));
        }
    }
    resp.set("jobs", std::move(jobsArr));

    auto &m = obs::MetricsRegistry::global();
    sim::SimCache::Stats cs = cache.stats();
    Json metrics = Json::object();
    metrics.set("queue_depth", double(queueDepth));
    metrics.set("worker_busy", busy);
    metrics.set("points_inflight",
                m.gauge("svc.points_inflight").value());
    metrics.set("cache_hits", double(cs.hits));
    metrics.set("cache_misses", double(cs.misses));
    metrics.set("cache_disk_hits", double(cs.diskHits));
    metrics.set("cache_hit_rate", cs.hitRate());
    metrics.set("bytes_streamed",
                double(bytesStreamedCounter().value()));
    metrics.set("jobs_submitted",
                double(m.counter("svc.jobs_submitted").value()));
    metrics.set("jobs_done",
                double(m.counter("svc.jobs_done").value()));
    metrics.set(
        "pool_pending",
        double(ThreadPool::global().pendingTasks()));
    resp.set("metrics", std::move(metrics));
    reply(c, resp);
}

void
Server::opCancel(Conn &c, const Json &req)
{
    const Json &id = req["id"];
    if (!id.isString()) {
        reply(c, errorResponse("cancel: 'id' required"));
        return;
    }
    std::shared_ptr<Job> job = findJob(id.asString());
    if (!job) {
        reply(c, errorResponse("no such job: " + id.asString()));
        return;
    }
    const char *state = nullptr;
    {
        std::lock_guard<std::mutex> lk(mu_);
        job->cancel.store(true);
        if (job->state == Job::State::Queued)
            job->state = Job::State::Cancelled;
        state = stateName(job->state);
        updateQueueMetrics();
    }
    wake(); // let subscribers learn about the terminal state
    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("id", job->id);
    resp.set("state", state);
    reply(c, resp);
}

void
Server::handleFrame(Conn &c, const std::string &payload)
{
    Json req;
    std::string perr;
    if (!Json::parse(payload, &req, &perr) || !req.isObject()) {
        reply(c, errorResponse("bad request: " +
                               (perr.empty() ? "not an object"
                                             : perr)));
        return;
    }
    const std::string &op = req["op"].asString();
    if (op == "ping") {
        Json resp = Json::object();
        resp.set("ok", true);
        reply(c, resp);
    } else if (op == "submit") {
        opSubmit(c, req);
    } else if (op == "results") {
        opResults(c, req);
    } else if (op == "status") {
        opStatus(c);
    } else if (op == "cancel") {
        opCancel(c, req);
    } else if (op == "shutdown") {
        Json resp = Json::object();
        resp.set("ok", true);
        reply(c, resp);
        shutdownReq_.store(true);
    } else {
        reply(c, errorResponse("unknown op: '" + op + "'"));
    }
}

void
Server::pumpConn(Conn &c)
{
    if (!c.sub)
        return;
    Job &job = *c.sub;
    bool terminal = false;
    Json doneFrame;
    {
        std::lock_guard<std::mutex> lk(mu_);
        while (c.subNext < job.rows.size() &&
               c.out.size() < kSoftOutCap) {
            // Row frames are the raw canonical row bytes — no
            // envelope, no job id — so a client transcript is
            // byte-comparable across daemons and runs.
            sendRaw(c, job.rows[c.subNext]);
            ++c.subNext;
        }
        if (c.subNext == job.rows.size() &&
            (job.state == Job::State::Done ||
             job.state == Job::State::Cancelled ||
             job.state == Job::State::Failed)) {
            terminal = true;
            doneFrame = Json::object();
            doneFrame.set("done", true);
            doneFrame.set("id", job.id);
            doneFrame.set("state", stateName(job.state));
            doneFrame.set("rows", double(job.rows.size()));
            doneFrame.set("cache_hits", double(job.cacheDelta.hits));
            doneFrame.set("cache_misses",
                          double(job.cacheDelta.misses));
            doneFrame.set("hit_rate", job.cacheDelta.hitRate());
            if (!job.error.empty())
                doneFrame.set("error", job.error);
        }
    }
    if (terminal) {
        reply(c, doneFrame);
        c.sub.reset();
        c.subNext = 0;
    }
}

void
Server::pumpSubscriptions()
{
    for (auto &c : conns_) {
        if (c->fd >= 0)
            pumpConn(*c);
    }
}

void
Server::beginShutdown()
{
    if (draining_)
        return;
    draining_ = true;
    // Stop accepting; cancel everything queued; tell the dispatcher
    // to stop after the current job's in-flight shard drains.
    if (unixFd_ >= 0) {
        ::close(unixFd_);
        unixFd_ = -1;
        ::unlink(opt_.socketPath.c_str());
    }
    if (tcpFd_ >= 0) {
        ::close(tcpFd_);
        tcpFd_ = -1;
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopDispatcher_ = true;
        for (auto &j : queue_) {
            j->cancel.store(true);
            if (j->state == Job::State::Queued)
                j->state = Job::State::Cancelled;
        }
        queue_.clear();
        if (running_)
            running_->cancel.store(true);
        updateQueueMetrics();
    }
    cv_.notify_all();
}

void
Server::run()
{
    std::vector<pollfd> pfds;
    std::vector<Conn *> pconns;
    char buf[65536];

    while (true) {
        if (shutdownReq_.load())
            beginShutdown();

        pfds.clear();
        pconns.clear();
        pfds.push_back({wakeR_, POLLIN, 0});
        if (unixFd_ >= 0)
            pfds.push_back({unixFd_, POLLIN, 0});
        if (tcpFd_ >= 0)
            pfds.push_back({tcpFd_, POLLIN, 0});
        std::size_t firstConn = pfds.size();
        for (auto &c : conns_) {
            if (c->fd < 0)
                continue;
            short ev = POLLIN;
            if (!c->out.empty())
                ev |= POLLOUT;
            pfds.push_back({c->fd, ev, 0});
            pconns.push_back(c.get());
        }

        if (draining_) {
            // Exit once the dispatcher finished and every subscriber
            // got its final bytes.
            bool idle = dispatcherIdle_.load();
            bool flushed = true;
            for (auto &c : conns_) {
                if (c->fd >= 0 && (!c->out.empty() || c->sub))
                    flushed = false;
            }
            if (idle && flushed) {
                // Close client connections here, not in the
                // destructor: peers blocked on a read must see EOF
                // the moment the daemon is done, or a client that
                // waits for close-after-drain hangs on our exit.
                for (auto &c : conns_) {
                    if (c->fd >= 0) {
                        ::close(c->fd);
                        c->fd = -1;
                    }
                }
                return;
            }
        }

        int rc = ::poll(pfds.data(),
                        static_cast<nfds_t>(pfds.size()),
                        draining_ ? 100 : -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return; // poll failure: nothing sane left to do
        }

        // Self-pipe: drain and check for a signal-delivered 'Q'.
        if (pfds[0].revents & POLLIN) {
            ssize_t n;
            while ((n = ::read(wakeR_, buf, sizeof(buf))) > 0) {
                for (ssize_t i = 0; i < n; ++i) {
                    if (buf[i] == 'Q')
                        shutdownReq_.store(true);
                }
            }
            if (shutdownReq_.load())
                beginShutdown();
        }

        // New connections.
        for (std::size_t i = 1; i < firstConn; ++i) {
            if (!(pfds[i].revents & POLLIN))
                continue;
            while (true) {
                int fd = ::accept(pfds[i].fd, nullptr, nullptr);
                if (fd < 0)
                    break;
                setNonBlocking(fd);
                auto conn = std::make_unique<Conn>();
                conn->fd = fd;
                conns_.push_back(std::move(conn));
            }
        }

        // Connection I/O.
        for (std::size_t i = firstConn; i < pfds.size(); ++i) {
            Conn &c = *pconns[i - firstConn];
            short rev = pfds[i].revents;
            if (rev & (POLLERR | POLLHUP | POLLNVAL)) {
                // Peer gone: read may still return buffered data,
                // but anything we'd produce has nowhere to go.
                ::close(c.fd);
                c.fd = -1;
                continue;
            }
            if (rev & POLLIN) {
                while (true) {
                    ssize_t n = ::read(c.fd, buf, sizeof(buf));
                    if (n > 0) {
                        c.dec.feed(buf, std::size_t(n));
                        continue;
                    }
                    if (n == 0) {
                        c.closing = true; // flush what's pending
                    } else if (errno != EAGAIN &&
                               errno != EWOULDBLOCK &&
                               errno != EINTR) {
                        ::close(c.fd);
                        c.fd = -1;
                    }
                    break;
                }
                if (c.fd >= 0) {
                    std::string payload;
                    while (c.dec.next(&payload))
                        handleFrame(c, payload);
                    if (c.dec.error()) {
                        // Unframeable stream; there is no way to
                        // resynchronize, so drop the connection.
                        ::close(c.fd);
                        c.fd = -1;
                    }
                }
            }
        }

        pumpSubscriptions();

        // Flush output buffers.
        for (auto &cp : conns_) {
            Conn &c = *cp;
            if (c.fd < 0 || c.out.empty()) {
                if (c.fd >= 0 && c.closing && c.out.empty() &&
                    !c.sub) {
                    ::close(c.fd);
                    c.fd = -1;
                }
                continue;
            }
            ssize_t n = ::send(c.fd, c.out.data(), c.out.size(),
                               MSG_NOSIGNAL);
            if (n > 0) {
                c.out.erase(0, std::size_t(n));
            } else if (n < 0 && errno != EAGAIN &&
                       errno != EWOULDBLOCK && errno != EINTR) {
                ::close(c.fd);
                c.fd = -1;
            }
            if (c.fd >= 0 && c.closing && c.out.empty() && !c.sub) {
                ::close(c.fd);
                c.fd = -1;
            }
        }

        // Compact closed connections.
        conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                    [](const std::unique_ptr<Conn>
                                           &c) {
                                        return c->fd < 0;
                                    }),
                     conns_.end());
    }
}

} // namespace hirise::svc
