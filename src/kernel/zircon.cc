#include "zircon.hh"

#include <cstring>

#include "kernel/call_frame.hh"
#include "sim/fault_injector.hh"
#include "sim/logging.hh"

namespace xpc::kernel {

ZirconKernel::ZirconKernel(hw::Machine &machine) : Kernel(machine)
{
    costs.schedule = params.schedule;
    stats.setName("zircon");
    stats.addCounter("channel_msgs", &channelMsgs);
}

uint64_t
ZirconKernel::createChannel(Thread &server, Handler handler)
{
    Channel ch;
    ch.id = channels.size();
    ch.server = &server;
    ch.handler = std::move(handler);
    uint64_t npages = params.maxMsgBytes / pageSize;
    ch.kernelBuf = mach.allocator().allocFrames(npages);
    panic_if(ch.kernelBuf == 0, "out of memory for channel buffer");
    ch.serverReqVa = server.process()->alloc(params.maxMsgBytes);
    ch.serverReplyVa = server.process()->alloc(params.maxMsgBytes);
    channels.push_back(std::move(ch));
    return channels.back().id;
}

void
ZirconKernel::chargeSyscall(hw::Core &core)
{
    trapEnter(core);
    saveRestoreRegs(core, 2 * params.syscallRegs);
    core.spend(params.syscallConst);
    trapExit(core);
}

void
ZirconServerCall::readRequest(uint64_t off, void *dst, uint64_t len)
{
    panic_if(off + len > owner.params.maxMsgBytes,
             "request read out of bounds");
    auto res = owner.userRead(coreRef, *server.process(), reqVa + off,
                              dst, len);
    if (!res.ok) {
        std::memset(dst, 0, len);
        fail(CallStatus::CopyFault);
        return;
    }
    if (len > 0)
        owner.hostileRewrite(coreRef, *server.process(), reqVa + off,
                             len);
}

void
ZirconServerCall::writeRequest(uint64_t off, const void *src,
                               uint64_t len)
{
    panic_if(off + len > owner.params.maxMsgBytes,
             "request write out of bounds");
    auto res = owner.userWrite(coreRef, *server.process(), reqVa + off,
                               src, len);
    if (!res.ok)
        fail(CallStatus::CopyFault);
}

void
ZirconServerCall::writeReply(uint64_t off, const void *src, uint64_t len)
{
    panic_if(off + len > replyCapacity, "reply write out of bounds");
    if (replyLen < off + len)
        replyLen = off + len;
    auto res = owner.userWrite(coreRef, *server.process(),
                               replyVa + off, src, len);
    if (!res.ok)
        fail(CallStatus::CopyFault);
}

void
ZirconServerCall::setReplyLen(uint64_t len)
{
    panic_if(len > replyCapacity, "reply longer than client buffer");
    replyLen = len;
}

void
ZirconServerCall::readReply(uint64_t off, void *dst, uint64_t len)
{
    panic_if(off + len > replyCapacity, "reply read out of bounds");
    if (len == 0)
        return;
    auto res = owner.userRead(coreRef, *server.process(),
                              replyVa + off, dst, len);
    if (!res.ok) {
        std::memset(dst, 0, len);
        fail(CallStatus::CopyFault);
    }
}

CallOutcome
ZirconKernel::call(hw::Core &core, Thread &client, uint64_t ch_id,
                   uint64_t opcode, VAddr req_va, uint64_t req_len,
                   VAddr reply_va, uint64_t reply_cap)
{
    CallOutcome out;
    panic_if(ch_id >= channels.size(), "no such channel %lu",
             (unsigned long)ch_id);
    Channel &ch = channels[ch_id];
    panic_if(req_len > params.maxMsgBytes,
             "channel message of %lu bytes exceeds the limit",
             (unsigned long)req_len);
    channelMsgs.inc();

    FaultInjector *inj = mach.faultInjector();
    const FaultEvent *fault = drawCallFault();

    // Bind the hop to its request chain and bracket the whole channel
    // round-trip on the client's lane.
    uint32_t clane = req::threadLane(uint32_t(client.id()));
    CallFrame frame("zircon", "channel_call", core, clane, client.tenant,
                    callDeadline, out.status);
    const uint64_t deadline = frame.deadline();
    Cycles start = frame.open();

    bool cross_core = ch.server->sched.homeCore != core.id();
    hw::Core &scre =
        cross_core ? mach.core(ch.server->sched.homeCore) : core;

    // A fault mid-call must still return control to the client: pay
    // for the hop back (if the server was woken) and surface the
    // status instead of panicking the whole simulation.
    bool server_woken = false;
    auto abortCall = [&](CallStatus status) -> CallOutcome {
        if (server_woken) {
            if (cross_core) {
                mach.sendIpi(scre.id(), core.id());
                core.syncTo(scre.now());
                core.spend(costs.remoteWake);
            } else {
                core.spend(params.schedule);
                contextSwitches.inc();
                setCurrent(core.id(), &client);
            }
        }
        out.ok = false;
        out.status = status;
        out.roundTrip = core.now() - start;
        return out;
    };

    if (frame.expired(core)) {
        // Budget already exhausted by upstream hops: reject before
        // the channel write.
        deadlineExpired.inc();
        return abortCall(CallStatus::DeadlineExpired);
    }

    // --- zx_channel_write: copy in (user -> kernel). --------------
    chargeSyscall(core);
    {
        req::PhaseScope phase(uint32_t(Phase::Transfer));
        std::vector<uint8_t> stage(req_len);
        if (req_len > 0) {
            auto res = userRead(core, *client.process(), req_va,
                                stage.data(), req_len);
            if (!res.ok)
                return abortCall(CallStatus::CopyFault);
            core.spend(mach.mem().writePhys(core.id(), ch.kernelBuf,
                                            stage.data(), req_len));
        }
    }

    // --- Wake the server; the client blocks on the reply. ---------
    server_woken = true;
    {
        req::PhaseScope phase(uint32_t(Phase::ProcessSwitch));
        if (cross_core) {
            mach.sendIpi(core.id(), scre.id());
            scre.spend(costs.remoteWake);
            scre.syncTo(core.now());
        } else {
            core.spend(params.schedule);
            contextSwitches.inc();
            setCurrent(core.id(), ch.server);
        }
        core.spend(params.portWait);
    }

    // --- zx_channel_read on the server: copy out (kernel->user). --
    chargeSyscall(scre);
    scre.spend(params.portWait);
    if (req_len > 0) {
        req::PhaseScope phase(uint32_t(Phase::Transfer));
        std::vector<uint8_t> stage(req_len);
        scre.spend(mach.mem().readPhys(scre.id(), ch.kernelBuf,
                                       stage.data(), req_len));
        auto res = userWrite(scre, *ch.server->process(),
                             ch.serverReqVa, stage.data(), req_len);
        if (!res.ok)
            return abortCall(CallStatus::CopyFault);
    }

    out.oneWay = scre.now() - start;

    // Data-corruption chaos: the channel delivered the request, now
    // break the server-visible copy before the handler parses it.
    // Even args flip one bit; odd args truncate the visible length
    // (the envelope's length check is what catches that one).
    if (fault && fault->op == FaultOp::CorruptPayload && req_len > 0) {
        if (fault->arg & 1) {
            uint64_t cut = 1 + ((fault->arg >> 1) % 7);
            req_len = req_len > cut ? req_len - cut : 0;
        } else {
            uint64_t at = (fault->arg >> 1) % req_len;
            uint8_t b = 0;
            if (userRead(scre, *ch.server->process(),
                         ch.serverReqVa + at, &b, 1)
                    .ok) {
                b ^= uint8_t(1u << ((fault->arg >> 1) % 8));
                userWrite(scre, *ch.server->process(),
                          ch.serverReqVa + at, &b, 1);
            }
        }
        inj->recordFired(*fault);
    }
    // TOCTOU chaos: arm the one-shot hostile rewrite; it fires after
    // the handler's arg-th request read (recorded there) and is
    // disarmed below if the handler never read that often.
    if (fault && fault->op == FaultOp::MutateAfterHandoff &&
        req_len > 0)
        inj->armHandoffMutation(*fault);

    // --- Handler. --------------------------------------------------
    ZirconServerCall call_ctx(*this, scre, *ch.server);
    call_ctx.client = &client;
    call_ctx.op = opcode;
    call_ctx.reqLen = req_len;
    call_ctx.replyCapacity = std::min(reply_cap, params.maxMsgBytes);
    call_ctx.reqVa = ch.serverReqVa;
    call_ctx.replyVa = ch.serverReplyVa;
    uint32_t hlane = req::threadLane(uint32_t(ch.server->id()));
    // Stall / slowdown faults strike while the server owns the
    // request; a stall only fires when a deadline is armed.
    bool stall_injected = false;
    uint32_t slow_factor = 1;
    if (fault && fault->op == FaultOp::StallServer && deadline != 0) {
        stall_injected = true;
        inj->recordFired(*fault);
    } else if (fault && fault->op == FaultOp::SlowServer) {
        slow_factor = fault->arg > 1 ? fault->arg : 2;
        inj->recordFired(*fault);
    }
    Cycles h0 = scre.now();
    {
        req::PhaseScope phase(uint32_t(Phase::Handler));
        if (stall_injected) {
            // Busy-loop past the deadline; no reply is produced.
            uint64_t now = scre.now().value();
            scre.spend(Cycles(
                (deadline > now ? deadline - now : 0) + 1000));
        } else {
            ch.handler(call_ctx);
            if (slow_factor > 1)
                scre.spend((scre.now() - h0) * (slow_factor - 1));
        }
    }
    out.handlerCycles = scre.now() - h0;
    if (inj)
        inj->clearHandoffMutation();
    frame.handlerSpan(h0, scre.now(), hlane);

    if (frame.expired(scre)) {
        // Expired while the server held the request: hop back to the
        // client and discard the (partial) reply it gave up on.
        deadlineExpired.inc();
        trace::Tracer::global().instantNow("zircon", "deadline_expired",
                                           clane);
        return abortCall(CallStatus::DeadlineExpired);
    }

    if (call_ctx.failStatus != CallStatus::Ok)
        return abortCall(call_ctx.failStatus);

    // Data-corruption chaos: garbage the staged reply after the
    // handler sealed it, before it travels back to the client.
    if (fault && fault->op == FaultOp::GarbageReply &&
        call_ctx.replyLen > 0) {
        uint64_t at = fault->arg % call_ctx.replyLen;
        uint8_t b = 0;
        if (userRead(scre, *ch.server->process(),
                     ch.serverReplyVa + at, &b, 1)
                .ok) {
            b ^= 0xA5;
            userWrite(scre, *ch.server->process(),
                      ch.serverReplyVa + at, &b, 1);
        }
        inj->recordFired(*fault);
    }

    // --- Reply: server write, schedule back, client read. ---------
    uint64_t reply_len = call_ctx.replyLen;
    chargeSyscall(scre);
    if (reply_len > 0) {
        req::PhaseScope phase(uint32_t(Phase::Transfer));
        std::vector<uint8_t> stage(reply_len);
        auto res = userRead(scre, *ch.server->process(),
                            ch.serverReplyVa, stage.data(), reply_len);
        if (!res.ok)
            return abortCall(CallStatus::CopyFault);
        scre.spend(mach.mem().writePhys(scre.id(), ch.kernelBuf,
                                        stage.data(), reply_len));
    }

    {
        req::PhaseScope phase(uint32_t(Phase::ProcessSwitch));
        if (cross_core) {
            mach.sendIpi(scre.id(), core.id());
            core.syncTo(scre.now());
            core.spend(costs.remoteWake);
        } else {
            core.spend(params.schedule);
            contextSwitches.inc();
            setCurrent(core.id(), &client);
        }
    }
    server_woken = false;

    chargeSyscall(core);
    if (reply_len > 0) {
        req::PhaseScope phase(uint32_t(Phase::Transfer));
        std::vector<uint8_t> stage(reply_len);
        core.spend(mach.mem().readPhys(core.id(), ch.kernelBuf,
                                       stage.data(), reply_len));
        auto res = userWrite(core, *client.process(), reply_va,
                             stage.data(), reply_len);
        if (!res.ok)
            return abortCall(CallStatus::CopyFault);
    }

    out.ok = true;
    out.replyLen = reply_len;
    out.roundTrip = core.now() - start;
    phaseStats.record(Phase::OneWay, out.oneWay);
    phaseStats.record(Phase::Handler, out.handlerCycles);
    phaseStats.record(Phase::RoundTrip, out.roundTrip);
    return out;
}

} // namespace xpc::kernel
