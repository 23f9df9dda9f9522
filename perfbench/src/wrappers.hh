/**
 * @file
 * Forwarding wrappers the traced run injects at the two public seams
 * of the simulators: a fabric::Fabric handed to NetworkSim's
 * injected-fabric constructor, and a cmp::Transport returned by a
 * CmpSystem TransportFactory. Each forwards every virtual to the
 * wrapped object unchanged and only counts calls and time, so traced
 * results must equal untraced results bit for bit.
 */

#ifndef PERFBENCH_WRAPPERS_HH
#define PERFBENCH_WRAPPERS_HH

#include <memory>
#include <vector>

#include "bench.hh"
#include "cmp/transport.hh"
#include "fabric/fabric.hh"

namespace perfbench {

/** Call and time counters of one wrapped object. */
struct CallStats
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

class ForwardingFabric : public hirise::fabric::Fabric
{
  public:
    explicit ForwardingFabric(
        std::unique_ptr<hirise::fabric::Fabric> inner)
        : Fabric(inner->spec()), inner_(std::move(inner))
    {}

    const CallStats &stats() const { return stats_; }

    const hirise::BitVec &
    arbitrate(std::span<const std::uint32_t> req) override
    {
        Timed t(stats_);
        return inner_->arbitrate(req);
    }
    const hirise::BitVec &
    arbitrateActive(std::span<const std::uint32_t> req,
                    std::span<const std::uint32_t> active) override
    {
        Timed t(stats_);
        return inner_->arbitrateActive(req, active);
    }
    void
    release(std::uint32_t input, std::uint32_t output) override
    {
        Timed t(stats_);
        inner_->release(input, output);
    }
    void
    advanceIdle(std::uint64_t cycles) override
    {
        Timed t(stats_);
        inner_->advanceIdle(cycles);
    }
    bool
    outputBusy(std::uint32_t output) const override
    {
        Timed t(stats_);
        return inner_->outputBusy(output);
    }
    std::uint32_t
    outputHolder(std::uint32_t output) const override
    {
        Timed t(stats_);
        return inner_->outputHolder(output);
    }
    bool
    supportsChannelFaults() const override
    {
        return inner_->supportsChannelFaults();
    }
    void
    failChannel(std::uint32_t src_layer, std::uint32_t dst_layer,
                std::uint32_t chan,
                std::vector<hirise::fabric::BrokenConn> *broken) override
    {
        Timed t(stats_);
        inner_->failChannel(src_layer, dst_layer, chan, broken);
    }
    void
    recoverChannel(std::uint32_t src_layer, std::uint32_t dst_layer,
                   std::uint32_t chan) override
    {
        Timed t(stats_);
        inner_->recoverChannel(src_layer, dst_layer, chan);
    }
    std::uint32_t
    heldChannelId(std::uint32_t output) const override
    {
        Timed t(stats_);
        return inner_->heldChannelId(output);
    }
    void
    save(hirise::snap::Writer &w) const override
    {
        inner_->save(w);
    }
    void
    load(hirise::snap::Reader &r) override
    {
        inner_->load(r);
    }

  private:
    /** Scoped call counter; const members count too. */
    class Timed
    {
      public:
        explicit Timed(CallStats &s) : s_(s), t0_(Clock::now()) {}
        ~Timed()
        {
            ++s_.calls;
            s_.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - t0_)
                         .count();
        }
        Timed(const Timed &) = delete;
        Timed &operator=(const Timed &) = delete;

      private:
        CallStats &s_;
        Clock::time_point t0_;
    };

    std::unique_ptr<hirise::fabric::Fabric> inner_;
    mutable CallStats stats_;
};

/** Hands out the forwarding fabrics of one simulator (one for a
 *  NetworkSim, one per lane for a BatchSim) and sums their counters;
 *  read total() while the simulator is alive. */
class FabricTap
{
  public:
    explicit FabricTap(const hirise::SwitchSpec &spec) : spec_(spec) {}

    std::unique_ptr<ForwardingFabric>
    make()
    {
        auto w = std::make_unique<ForwardingFabric>(
            hirise::fabric::makeFabric(spec_));
        made_.push_back(w.get());
        return w;
    }
    CallStats
    total() const
    {
        CallStats t;
        for (const ForwardingFabric *w : made_) {
            t.calls += w->stats().calls;
            t.ns += w->stats().ns;
        }
        return t;
    }

  private:
    hirise::SwitchSpec spec_;
    std::vector<ForwardingFabric *> made_;
};

class ForwardingTransport : public hirise::cmp::Transport
{
  public:
    explicit ForwardingTransport(
        std::unique_ptr<hirise::cmp::Transport> inner)
        : inner_(std::move(inner))
    {}

    /** step() calls (the switch cycles) and time, including the
     *  delivery callbacks a step triggers. */
    const CallStats &stepStats() const { return step_; }
    /** send() calls and time, outside step(). */
    const CallStats &sendStats() const { return send_; }

    void
    send(const hirise::cmp::Message &m) override
    {
        if (inStep_) {
            inner_->send(m); // already inside step()'s time
            return;
        }
        auto t0 = Clock::now();
        inner_->send(m);
        account(send_, t0);
    }
    void
    step() override
    {
        auto t0 = Clock::now();
        inStep_ = true;
        inner_->step();
        inStep_ = false;
        account(step_, t0);
    }
    std::uint64_t
    messagesDelivered() const override
    {
        return inner_->messagesDelivered();
    }

  private:
    static void
    account(CallStats &s, Clock::time_point t0)
    {
        ++s.calls;
        s.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - t0)
                    .count();
    }

    std::unique_ptr<hirise::cmp::Transport> inner_;
    bool inStep_ = false;
    CallStats step_;
    CallStats send_;
};

} // namespace perfbench

#endif // PERFBENCH_WRAPPERS_HH
