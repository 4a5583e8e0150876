/**
 * @file
 * Causal tracing and critical-path reconstruction: one request must
 * render as a single closed flow across lanes, and the per-span cycle
 * attribution must sum to exactly the request's end-to-end cycles -
 * including under ring wraparound and fault-injected server death.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "core/system.hh"
#include "core/transport.hh"
#include "sim/critpath.hh"
#include "sim/fault_injector.hh"
#include "sim/request.hh"
#include "sim/trace.hh"

using namespace xpc;

namespace {

class CritPathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::Tracer &t = trace::Tracer::global();
        t.setEnabled(true);
        t.setCapacity(1 << 14);
        t.clear();
        req::RequestContext::global().reset();
    }

    void
    TearDown() override
    {
        trace::Tracer &t = trace::Tracer::global();
        t.setEnabled(false);
        t.clear();
        req::RequestContext::global().reset();
    }

    static std::unique_ptr<core::System>
    makeSystem(core::SystemFlavor flavor)
    {
        core::SystemOptions opts;
        opts.flavor = flavor;
        return std::make_unique<core::System>(opts);
    }
};

/** The invariant every report must satisfy: nothing vanished. */
void
expectExact(const critpath::RequestReport &r)
{
    EXPECT_EQ(r.attributed(), r.total())
        << "request #" << r.id << " lost cycles";
}

TEST_F(CritPathTest, SingleXcallReconstructs)
{
    // The quickstart shape: client -> echo server, XPC fast path.
    auto sys = makeSystem(core::SystemFlavor::Sel4Xpc);
    core::XpcRuntime &rt = sys->runtime();
    hw::Core &core = sys->core(0);

    kernel::Thread &server = sys->spawn("echo-server");
    // The handler touches the message so its span has real cycles
    // (readMsg/writeMsg are charged through the relay segment).
    uint64_t id = rt.registerEntry(
        server, server,
        [](core::XpcServerCall &call) {
            uint8_t buf[64];
            call.readMsg(0, buf, sizeof(buf));
            call.writeMsg(0, buf, sizeof(buf));
            call.setReplyLen(sizeof(buf));
        },
        4);
    kernel::Thread &client = sys->spawn("client");
    sys->manager().grantXcallCap(server, client, id);
    rt.allocRelayMem(core, client, 4096);

    trace::Tracer &tracer = trace::Tracer::global();
    tracer.clear();
    req::RequestContext::global().reset();
    auto out = rt.call(core, client, id, 0, 64);
    ASSERT_TRUE(out.ok);

    auto reports = critpath::analyze(tracer.events());
    ASSERT_EQ(reports.size(), 1u);
    const critpath::RequestReport &r = reports[0];
    EXPECT_EQ(r.id, 1u);
    EXPECT_TRUE(r.complete);
    EXPECT_TRUE(r.flowClosed);
    EXPECT_GE(r.lanes, 2u); // client thread lane + handler/core lanes
    expectExact(r);
    EXPECT_FALSE(r.path.empty());

    // The handler span exists and sits on a lane in the path.
    bool saw_handler = false;
    for (const auto &[name, cycles] : r.spanCycles)
        saw_handler |= name == "handler";
    EXPECT_TRUE(saw_handler);

    // The human-readable report agrees with the flags.
    std::string text = critpath::formatReport(r, tracer);
    EXPECT_NE(text.find("flow closed"), std::string::npos);
    EXPECT_NE(text.find("exact"), std::string::npos);
    EXPECT_EQ(text.find("MISMATCH"), std::string::npos);
}

TEST_F(CritPathTest, NestedChainKeepsOneFlow)
{
    // The web_chain shape: client -> A -> B -> C by seg-mask
    // handover. All three hops must share one RequestId and land in
    // one report that spans at least four lanes.
    auto sys = makeSystem(core::SystemFlavor::Sel4Xpc);
    core::XpcRuntime &rt = sys->runtime();
    hw::Core &core = sys->core(0);

    kernel::Thread &a_t = sys->spawn("front");
    kernel::Thread &b_t = sys->spawn("middle");
    kernel::Thread &c_t = sys->spawn("back");
    kernel::Thread &client = sys->spawn("client");

    uint64_t b_id = 0, c_id = 0;
    c_id = rt.registerEntry(
        c_t, c_t,
        [](core::XpcServerCall &call) { call.setReplyLen(16); }, 4);
    b_id = rt.registerEntry(
        b_t, b_t,
        [&](core::XpcServerCall &call) {
            auto out = call.callNested(c_id, 0, 0, 16);
            EXPECT_TRUE(out.ok);
        },
        4);
    uint64_t a_id = rt.registerEntry(
        a_t, a_t,
        [&](core::XpcServerCall &call) {
            auto out = call.callNested(b_id, 0, 0, 16);
            EXPECT_TRUE(out.ok);
        },
        4);
    sys->manager().grantXcallCap(a_t, client, a_id);
    sys->manager().grantXcallCap(b_t, a_t, b_id);
    sys->manager().grantXcallCap(c_t, b_t, c_id);
    rt.allocRelayMem(core, client, 4096);

    trace::Tracer &tracer = trace::Tracer::global();
    tracer.clear();
    req::RequestContext::global().reset();
    auto out = rt.call(core, client, a_id, 0, 64);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(req::RequestContext::global().minted(), 1u);

    auto reports = critpath::analyze(tracer.events());
    ASSERT_EQ(reports.size(), 1u) << "nested hops minted extra ids";
    const critpath::RequestReport &r = reports[0];
    EXPECT_TRUE(r.complete);
    EXPECT_TRUE(r.flowClosed);
    EXPECT_GE(r.lanes, 4u); // client + front + middle + back
    expectExact(r);
}

TEST_F(CritPathTest, TransportCallsCloseOnEveryKernel)
{
    // The same invariants through the Transport layer on every
    // kernel: XPC fast path, seL4 IPC in both copy disciplines, Zircon
    // channels. Each call's frame also stamps the request's terminal
    // outcome (critpath.py --top groups by it), plus the caller's
    // tenant and tier when they are not the default.
    struct Case
    {
        core::SystemFlavor flavor;
        const char *cat;
    };
    const Case cases[] = {
        {core::SystemFlavor::Sel4Xpc, "xpc"},
        {core::SystemFlavor::Sel4TwoCopy, "sel4"},
        {core::SystemFlavor::Sel4OneCopy, "sel4"},
        {core::SystemFlavor::Zircon, "zircon"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(core::systemFlavorName(c.flavor));
        auto sys = makeSystem(c.flavor);
        kernel::Thread &server = sys->spawn("server");
        kernel::Thread &client = sys->spawn("client");
        kernel::Thread &tenant_client =
            sys->spawn("tenant-client", 0, /*tenant=*/7);
        core::ServiceDesc desc;
        desc.name = "echo";
        desc.handlerThread = &server;
        core::ServiceId svc = sys->transport().registerService(
            desc, [](core::ServerApi &api) {
                api.replyFromRequest(0, api.requestLen());
            });
        sys->transport().connect(client, svc);
        sys->transport().connect(tenant_client, svc);

        hw::Core &core = sys->core(0);
        core::Transport &tr = sys->transport();
        tr.requestArea(core, client, 4096);
        tr.requestArea(core, tenant_client, 4096);

        trace::Tracer &tracer = trace::Tracer::global();
        // The (name, text) of every outcome/tenant/tier instant, each
        // checked to carry the flavor's span category.
        auto stamps = [&] {
            std::vector<std::pair<std::string, std::string>> out;
            for (const trace::TraceEvent &ev : tracer.events()) {
                std::string name = ev.name;
                if (ev.kind != trace::EventKind::Instant ||
                    (name != "outcome" && name != "tenant" &&
                     name != "tier"))
                    continue;
                EXPECT_STREQ(ev.cat, c.cat) << name;
                out.emplace_back(name, tracer.textOf(ev));
            }
            return out;
        };
        using Stamps = std::vector<std::pair<std::string, std::string>>;

        tracer.clear();
        req::RequestContext::global().reset();
        uint8_t payload[64] = {0x5a};
        tr.clientWrite(core, client, 0, payload, sizeof(payload));
        core::CallResult res =
            tr.call(core, client, svc, 0, sizeof(payload), 4096);
        ASSERT_TRUE(res.ok);

        auto reports = critpath::analyze(tracer.events());
        ASSERT_EQ(reports.size(), 1u);
        const critpath::RequestReport &r = reports[0];
        EXPECT_TRUE(r.complete);
        EXPECT_TRUE(r.flowClosed);
        EXPECT_GE(r.lanes, 2u);
        expectExact(r);
        // Default tenant and tier: the outcome alone.
        EXPECT_EQ(stamps(), (Stamps{{"outcome", "ok"}}));

        // An upstream hop already spent the whole budget: the call is
        // refused before it traps, and the frame still closes it.
        tracer.clear();
        {
            req::DeadlineScope spent(core.now().value());
            res = tr.call(core, client, svc, 0, sizeof(payload), 4096);
        }
        EXPECT_FALSE(res.ok);
        EXPECT_EQ(res.status, core::TransportStatus::DeadlineExpired);
        EXPECT_EQ(stamps(), (Stamps{{"outcome", "deadline-expired"}}));
        reports = critpath::analyze(tracer.events());
        ASSERT_EQ(reports.size(), 1u);
        EXPECT_TRUE(reports[0].flowClosed);
        expectExact(reports[0]);

        // A non-default tenant calling at the critical tier.
        tracer.clear();
        tr.clientWrite(core, tenant_client, 0, payload, sizeof(payload));
        {
            req::CriticalityScope tier(req::Criticality::Critical);
            res = tr.call(core, tenant_client, svc, 0, sizeof(payload),
                          4096);
        }
        ASSERT_TRUE(res.ok);
        EXPECT_EQ(stamps(), (Stamps{{"outcome", "ok"},
                                    {"tenant", "7"},
                                    {"tier", "critical"}}));
    }
}

TEST_F(CritPathTest, RingWraparoundMidRequestDegradesGracefully)
{
    // A ring too small for one call: the oldest events (the request's
    // opening span and flow anchor) are overwritten. The analyzer
    // must clamp, flag the report incomplete, and still attribute
    // every surviving cycle.
    auto sys = makeSystem(core::SystemFlavor::Sel4Xpc);
    core::XpcRuntime &rt = sys->runtime();
    hw::Core &core = sys->core(0);

    kernel::Thread &server = sys->spawn("server");
    uint64_t id = rt.registerEntry(
        server, server,
        [](core::XpcServerCall &call) {
            call.setReplyLen(call.requestLen());
        },
        4);
    kernel::Thread &client = sys->spawn("client");
    sys->manager().grantXcallCap(server, client, id);
    rt.allocRelayMem(core, client, 4096);

    trace::Tracer &tracer = trace::Tracer::global();
    tracer.setCapacity(16);
    req::RequestContext::global().reset();
    auto out = rt.call(core, client, id, 0, 2048);
    ASSERT_TRUE(out.ok);
    ASSERT_EQ(tracer.size(), 16u) << "call too small to wrap the ring";

    auto reports = critpath::analyze(tracer.events());
    for (const critpath::RequestReport &r : reports) {
        expectExact(r); // holds even for a clamped window
        EXPECT_FALSE(r.complete && r.flowClosed)
            << "a wrapped request cannot be fully reconstructed";
    }
}

TEST_F(CritPathTest, FaultInjectedServerDeathStillBalancesSpans)
{
    // KillServer mid-handler: the call unwinds with ServiceDead, yet
    // the RAII span closers must still end every span so the request
    // window stays exactly attributable.
    auto sys = makeSystem(core::SystemFlavor::Sel4Xpc);
    core::XpcRuntime &rt = sys->runtime();
    hw::Core &core = sys->core(0);

    kernel::Thread &server = sys->spawn("victim");
    uint64_t id = rt.registerEntry(
        server, server,
        [](core::XpcServerCall &call) {
            call.setReplyLen(call.requestLen());
        },
        4);
    kernel::Thread &client = sys->spawn("client");
    sys->manager().grantXcallCap(server, client, id);
    rt.allocRelayMem(core, client, 4096);

    FaultPlan plan;
    FaultEvent ev;
    ev.callSeq = 1;
    ev.op = FaultOp::KillServer;
    ev.phase = FaultPhase::InHandler;
    plan.events.push_back(ev);
    FaultInjector inj(plan);
    sys->machine().setFaultInjector(&inj);
    inj.enabled = true;

    trace::Tracer &tracer = trace::Tracer::global();
    tracer.clear();
    req::RequestContext::global().reset();
    auto out = rt.call(core, client, id, 0, 64);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.status, kernel::CallStatus::ServiceDead);
    sys->machine().setFaultInjector(nullptr);

    auto reports = critpath::analyze(tracer.events());
    ASSERT_EQ(reports.size(), 1u);
    const critpath::RequestReport &r = reports[0];
    EXPECT_TRUE(r.flowClosed) << "unwind skipped the flow end";
    expectExact(r);
    std::string text = critpath::formatReport(r, tracer);
    EXPECT_EQ(text.find("MISMATCH"), std::string::npos);
}

TEST_F(CritPathTest, AggregateStatsAndTopReport)
{
    auto sys = makeSystem(core::SystemFlavor::Sel4Xpc);
    core::XpcRuntime &rt = sys->runtime();
    hw::Core &core = sys->core(0);

    kernel::Thread &server = sys->spawn("server");
    uint64_t id = rt.registerEntry(
        server, server,
        [](core::XpcServerCall &call) {
            uint8_t buf[64];
            call.readMsg(0, buf, sizeof(buf));
            call.setReplyLen(sizeof(buf));
        },
        4);
    kernel::Thread &client = sys->spawn("client");
    sys->manager().grantXcallCap(server, client, id);
    rt.allocRelayMem(core, client, 4096);

    trace::Tracer &tracer = trace::Tracer::global();
    tracer.clear();
    req::RequestContext::global().reset();
    constexpr int calls = 5;
    for (int i = 0; i < calls; i++)
        ASSERT_TRUE(rt.call(core, client, id, 0, 64).ok);

    auto reports = critpath::analyze(tracer.events());
    ASSERT_EQ(reports.size(), size_t(calls));
    for (const auto &r : reports)
        expectExact(r);

    critpath::CritPathStats agg;
    agg.addAll(reports);
    EXPECT_EQ(agg.total().count(), uint64_t(calls));
    ASSERT_NE(agg.span("handler"), nullptr);
    EXPECT_EQ(agg.span("handler")->count(), uint64_t(calls));

    std::string top = critpath::formatTop(reports);
    EXPECT_NE(top.find("5 request"), std::string::npos);
    EXPECT_NE(top.find("handler"), std::string::npos);
}

TEST_F(CritPathTest, TraceEventStaysPodWithSideText)
{
    // Satellite guarantee: the ring slot allocates nothing; dynamic
    // text lives in the side ring and survives lookup via textOf.
    static_assert(std::is_trivially_copyable_v<trace::TraceEvent>,
                  "TraceEvent must stay a POD ring slot");
    trace::Tracer &tracer = trace::Tracer::global();
    tracer.clear();
    tracer.instantNow("unit", "note", 7, "hello side ring");
    auto evs = tracer.events();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(tracer.textOf(evs[0]), "hello side ring");
}

} // namespace
