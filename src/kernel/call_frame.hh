/**
 * @file
 * The frame every cross-process call path opens around one call:
 * seL4 endpoint IPC, Zircon channel calls and the XPC runtime's
 * xcall. It binds the call to its request chain and deadline,
 * brackets it with a span and a causal flow arc on the caller's
 * lane, and on every exit path - abort unwinds, timeouts and crashed
 * servers included - stamps the request's terminal outcome and
 * closes both, so the profiler always sees a well-bracketed request.
 */

#ifndef XPC_KERNEL_CALL_FRAME_HH
#define XPC_KERNEL_CALL_FRAME_HH

#include <string>

#include "hw/core.hh"
#include "kernel/kernel.hh"
#include "sim/request.hh"
#include "sim/trace.hh"

namespace xpc::kernel {

class CallFrame
{
  public:
    /**
     * Bind the call to its request chain: the outermost call mints a
     * fresh request id, nested hops inherit it. Then push the
     * deadline: a top-level call with a non-zero @p budget gets an
     * absolute one of now + budget, nested hops inherit (and can only
     * tighten) the enclosing one. The span opens later, in open(), so
     * a path can spend cycles after minting and before it counts.
     *
     * @p cat and @p span name the span ("sel4"/"call"), @p lane and
     * @p tenant are the caller's, and @p status is the call's outcome,
     * read when the frame closes.
     */
    CallFrame(const char *cat, const char *span, hw::Core &core,
              uint32_t lane, TenantId tenant, Cycles budget,
              const CallStatus &status)
        : cat(cat), span(span), core(core), lane(lane), tenant(tenant),
          status(status),
          dscope(rscope.topLevel() && budget.value() != 0
                     ? (core.now() + budget).value()
                     : 0),
          dl(req::RequestContext::global().currentDeadline()),
          tier(req::RequestContext::global().currentCriticality())
    {}

    CallFrame(const CallFrame &) = delete;
    CallFrame &operator=(const CallFrame &) = delete;

    /** Open the span and the flow arc (which starts at the chain's
     *  first call and steps through each nested hop) at the core's
     *  current cycle. @return that cycle: the call's start. */
    Cycles
    open()
    {
        Cycles start = core.now();
        if (tr.enabled()) {
            active = true;
            tr.begin(cat, span, start.value(), lane);
            tr.flow(rscope.topLevel() ? trace::EventKind::FlowStart
                                      : trace::EventKind::FlowStep,
                    cat, "req", rscope.id(), start.value(), lane);
        }
        return start;
    }

    /** Stamp the outcome (and, for top-level calls, the tenant and
     *  tier), then close the flow arc and the span. */
    ~CallFrame()
    {
        bool top = rscope.topLevel();
        if (top && tr.enabled()) {
            // critpath.py groups requests by outcome (--top). Tenant
            // and tier are stamped only when not the default, so
            // single-tenant, untiered traces carry neither.
            tr.instantNow(cat, "outcome", lane, callStatusName(status));
            if (tenant != defaultTenant)
                tr.instantNow(cat, "tenant", lane,
                              std::to_string(tenant));
            if (tier != req::Criticality::Default)
                tr.instantNow(cat, "tier", lane,
                              req::criticalityName(tier));
        }
        if (!active)
            return;
        uint64_t now = core.now().value();
        if (top)
            tr.flow(trace::EventKind::FlowEnd, cat, "req", rscope.id(),
                    now, lane);
        tr.end(cat, span, now, lane);
    }

    /** Absolute deadline of the call (0 = none). */
    uint64_t deadline() const { return dl; }

    /** True once @p c's clock has reached the deadline. */
    bool
    expired(const hw::Core &c) const
    {
        return dl != 0 && c.now().value() >= dl;
    }

    /** A phase of the call, [@p from, @p to) on lane @p on. */
    void
    phaseSpan(const char *name, Cycles from, Cycles to,
              uint32_t on) const
    {
        if (!tr.enabled())
            return;
        tr.begin(cat, name, from.value(), on);
        tr.end(cat, name, to.value(), on);
    }

    /** The handler's span, on the server thread's lane @p on, with the
     *  flow arc stepping through it so Perfetto draws the hop. */
    void
    handlerSpan(Cycles from, Cycles to, uint32_t on) const
    {
        if (!tr.enabled())
            return;
        tr.begin(cat, "handler", from.value(), on);
        tr.flow(trace::EventKind::FlowStep, cat, "req", rscope.id(),
                from.value(), on);
        tr.end(cat, "handler", to.value(), on);
    }

  private:
    trace::Tracer &tr = trace::Tracer::global();
    const char *cat;
    const char *span;
    hw::Core &core;
    uint32_t lane;
    TenantId tenant;
    const CallStatus &status;
    req::RequestScope rscope;
    req::DeadlineScope dscope;
    uint64_t dl;
    req::Criticality tier;
    bool active = false;
};

} // namespace xpc::kernel

#endif // XPC_KERNEL_CALL_FRAME_HH
