#include "sel4.hh"

#include <cstring>

#include "kernel/call_frame.hh"
#include "sim/fault_injector.hh"
#include "sim/logging.hh"

namespace xpc::kernel {

Sel4Kernel::Sel4Kernel(hw::Machine &machine) : Kernel(machine)
{
    stats.setName("sel4");
    stats.addCounter("fastpath_calls", &fastpathCalls);
    stats.addCounter("slowpath_calls", &slowpathCalls);
    stats.addCounter("cross_core_calls", &crossCoreCalls);
}

uint64_t
Sel4Kernel::createEndpoint(Thread &server, Handler handler)
{
    Endpoint ep;
    ep.id = endpoints.size();
    ep.server = &server;
    ep.handler = std::move(handler);
    ep.scratchLen = params.sharedBufBytes;
    ep.scratchVa = server.process()->alloc(ep.scratchLen);
    endpoints.push_back(std::move(ep));
    return endpoints.back().id;
}

void
Sel4Kernel::grantEndpointCap(Thread &client, uint64_t ep)
{
    panic_if(ep >= endpoints.size(), "no such endpoint %lu",
             (unsigned long)ep);
    endpointCaps[{client.id(), ep}] = true;
}

Sel4Kernel::SharedBuf &
Sel4Kernel::sharedFor(Endpoint &ep, Thread &client)
{
    auto it = ep.shared.find(client.id());
    if (it != ep.shared.end())
        return it->second;

    // First long message from this client: the kernel sets up a
    // buffer shared between the two address spaces.
    uint64_t len = params.sharedBufBytes;
    uint64_t npages = len / pageSize;
    PAddr phys = mach.allocator().allocFrames(npages);
    panic_if(phys == 0, "out of memory for shared IPC buffer");
    mach.phys().clear(phys, len);

    AddressSpace &cspace = client.process()->space();
    AddressSpace &sspace = ep.server->process()->space();
    VAddr cva = cspace.reserveSegRange(len);
    VAddr sva = sspace.reserveSegRange(len);
    // reserveSegRange found us a free range; convert it to a real
    // shared mapping.
    cspace.releaseSegRange(cva);
    sspace.releaseSegRange(sva);
    for (uint64_t i = 0; i < npages; i++) {
        cspace.pageTable().map(cva + i * pageSize, phys + i * pageSize,
                               mem::permsRW);
        sspace.pageTable().map(sva + i * pageSize, phys + i * pageSize,
                               mem::permsRW);
    }
    SharedBuf buf{cva, sva, len};
    return ep.shared.emplace(client.id(), buf).first->second;
}

void
Sel4ServerCall::readRequest(uint64_t off, void *dst, uint64_t len)
{
    panic_if(off + len > reqCapacity, "request read out of bounds");
    if (len == 0)
        return; // memcpy on a null dst is UB even for zero bytes
    switch (mode) {
      case Mode::Registers:
        std::memcpy(dst, regs + off, len);
        // MutateAfterHandoff: the peer rewrites the field the handler
        // just fetched in the source representation, the registers.
        if (owner.handoffStrikes())
            for (uint64_t i = 0; i < len && i < 8; i++)
                regs[off + i] ^= 0xA5;
        return;
      case Mode::IpcBuffer:
      case Mode::Shared: {
        auto res = owner.userRead(coreRef, *server.process(),
                                  reqBufVa() + off, dst, len);
        if (!res.ok) {
            // Deterministic garbage for the handler; the kernel
            // aborts the reply once the handler returns.
            std::memset(dst, 0, len);
            fail(CallStatus::CopyFault);
            return;
        }
        owner.hostileRewrite(coreRef, *server.process(),
                             reqBufVa() + off, len);
        return;
      }
    }
}

void
Sel4ServerCall::writeRequest(uint64_t off, const void *src,
                             uint64_t len)
{
    panic_if(off + len > reqCapacity, "request write out of bounds");
    if (len == 0)
        return;
    switch (mode) {
      case Mode::Registers:
        std::memcpy(regs + off, src, len);
        return;
      case Mode::IpcBuffer:
      case Mode::Shared: {
        auto res = owner.userWrite(coreRef, *server.process(),
                                   reqBufVa() + off, src, len);
        if (!res.ok)
            fail(CallStatus::CopyFault);
        return;
      }
    }
}

void
Sel4ServerCall::writeReply(uint64_t off, const void *src, uint64_t len)
{
    panic_if(off + len > replyCapacity, "reply write out of bounds");
    if (len == 0)
        return;
    uint64_t prev = replyLen;
    if (replyLen < off + len)
        replyLen = off + len;

    if (!replyInBuffer && replyLen <= owner.params.regMsgMax) {
        std::memcpy(regsReply + off, src, len);
        return;
    }
    if (!replyInBuffer) {
        // The reply outgrew the registers: migrate what was staged.
        if (prev > 0) {
            auto res = owner.userWrite(coreRef, *server.process(),
                                       replyDst(), regsReply, prev);
            if (!res.ok)
                fail(CallStatus::CopyFault);
        }
        replyInBuffer = true;
    }
    auto res = owner.userWrite(coreRef, *server.process(),
                               replyDst() + off, src, len);
    if (!res.ok)
        fail(CallStatus::CopyFault);
}

void
Sel4ServerCall::setReplyLen(uint64_t len)
{
    panic_if(len > replyCapacity, "reply longer than client buffer");
    replyLen = len;
}

void
Sel4ServerCall::readReply(uint64_t off, void *dst, uint64_t len)
{
    panic_if(off + len > replyCapacity, "reply read out of bounds");
    if (len == 0)
        return;
    if (!replyInBuffer) {
        std::memcpy(dst, regsReply + off, len);
        return;
    }
    auto res = owner.userRead(coreRef, *server.process(),
                              replyDst() + off, dst, len);
    if (!res.ok) {
        std::memset(dst, 0, len);
        fail(CallStatus::CopyFault);
    }
}

CallOutcome
Sel4Kernel::call(hw::Core &core, Thread &client, uint64_t ep_id,
                 uint64_t opcode, VAddr req_va, uint64_t req_len,
                 VAddr reply_va, uint64_t reply_cap, LongMsgMode mode)
{
    CallOutcome out;
    panic_if(ep_id >= endpoints.size(), "no such endpoint %lu",
             (unsigned long)ep_id);
    Endpoint &ep = endpoints[ep_id];
    if (!endpointCaps[{client.id(), ep_id}]) {
        warn("thread %u lacks a cap for endpoint %lu", client.id(),
             (unsigned long)ep_id);
        out.status = CallStatus::NoCapability;
        return out;
    }

    // Chaos hook: a scheduled copy fault arms a one-shot memory
    // fault that the next copy on this call path consumes; stall and
    // slowdown faults strike later, around the handler.
    FaultInjector *inj = mach.faultInjector();
    const FaultEvent *fault = drawCallFault();

    // One seL4 IPC is one hop of a request chain, bracketed on the
    // client's lane.
    uint32_t clane = req::threadLane(uint32_t(client.id()));
    CallFrame frame("sel4", "call", core, clane, client.tenant,
                    callDeadline, out.status);
    const uint64_t deadline = frame.deadline();
    Cycles start = frame.open();

    // Abandon the call: if the kernel already switched to the server,
    // charge the bare return IPC before surfacing the error.
    auto abortCall = [&](CallStatus status) {
        if (current(core.id()) != &client) {
            trapEnter(core);
            saveRestoreRegs(core, params.fastpathRegs);
            core.spend(params.trapConst);
            core.spend(params.switchConst);
            if (!mach.config().mem.taggedTlb) {
                core.spend(mach.config().core.tlbFlush);
                mach.mem().flushTlb(core.id());
            }
            setCurrent(core.id(), &client);
            saveRestoreRegs(core, params.fastpathRegs);
            core.spend(params.restoreConst);
            trapExit(core);
        }
        out.ok = false;
        out.status = status;
        out.roundTrip = core.now() - start;
        return out;
    };

    if (frame.expired(core)) {
        // Out of budget before the syscall even traps: an upstream
        // hop burned the whole deadline. Reject instead of calling.
        deadlineExpired.inc();
        return abortCall(CallStatus::DeadlineExpired);
    }

    Sel4Phases phases;
    bool cross_core = ep.server->sched.homeCore != core.id();
    bool medium = req_len > params.regMsgMax &&
                  req_len <= params.ipcBufMax;
    bool large = req_len > params.ipcBufMax;
    bool reply_large_cap = reply_cap > params.ipcBufMax;
    bool slowpath = cross_core || medium ||
                    client.sched.priority != ep.server->sched.priority;

    // --- Message transfer, client half. ---------------------------
    // For long messages the client first copies its private request
    // into the shared window; this happens in user mode before the
    // syscall (the paper's "Message Transfer" phase).
    Cycles t0 = core.now();
    Sel4ServerCall call_ctx(*this, core, *ep.server);
    call_ctx.client = &client;
    call_ctx.op = opcode;
    call_ctx.reqLen = req_len;
    call_ctx.reqCapacity = params.regMsgMax;
    call_ctx.replyCapacity = reply_cap;
    call_ctx.longMode = mode;
    call_ctx.serverBufVa = ep.scratchVa;

    SharedBuf *shared = nullptr;
    if (large || reply_large_cap)
        shared = &sharedFor(ep, client);
    if (shared && mode == LongMsgMode::OneCopy) {
        // One-copy replies are produced straight into the window.
        call_ctx.replySharedVa = shared->serverVa;
    }
    if (large) {
        panic_if(req_len > shared->len, "message exceeds shared buffer");
        req::PhaseScope phase(uint32_t(Phase::Transfer));
        auto res =
            mach.mem().copy(core.id(), userCtx(*client.process()),
                            req_va, userCtx(*client.process()),
                            shared->clientVa, req_len);
        core.spend(res.cycles);
        if (!res.ok)
            return abortCall(CallStatus::CopyFault);
        call_ctx.mode = Sel4ServerCall::Mode::Shared;
        call_ctx.sharedVa = shared->serverVa;
        call_ctx.serverBufVa = ep.scratchVa;
        call_ctx.reqCapacity = std::min(shared->len, ep.scratchLen);
    } else if (req_len > 0 && !medium) {
        // Register transfer: load the words now (functionally); the
        // cycle cost rides in the process-switch phase.
        auto res = userRead(core, *client.process(), req_va,
                            call_ctx.regs, req_len);
        if (!res.ok)
            return abortCall(CallStatus::CopyFault);
        call_ctx.mode = Sel4ServerCall::Mode::Registers;
    }

    // --- Phase 1: trap. -------------------------------------------
    Cycles trap_start = core.now();
    {
        req::PhaseScope phase(uint32_t(Phase::Trap));
        trapEnter(core);
        saveRestoreRegs(core, params.fastpathRegs);
        core.spend(params.trapConst);
    }
    phases.trap = core.now() - trap_start;
    frame.phaseSpan("trap", trap_start, core.now(), core.id());

    // --- Phase 2: IPC logic (capability fetch + checks). ----------
    t0 = core.now();
    {
        req::PhaseScope phase(uint32_t(Phase::IpcLogic));
        // The cap lookup reads the client's cnode slot and the
        // endpoint object, both in kernel memory.
        uint64_t scratch[2];
        core.spend(mach.mem().readPhys(core.id(), 0x1000 + ep_id * 64,
                                       scratch, 16));
        core.spend(params.logicConst);
        if (slowpath) {
            slowpathCalls.inc();
            core.spend(params.slowpathExtra);
        } else {
            fastpathCalls.inc();
        }
    }
    phases.logic = core.now() - t0;
    frame.phaseSpan("ipc_logic", t0, core.now(), core.id());

    // Medium messages: the kernel copies through the IPC buffer
    // while still in the kernel (slow path).
    t0 = core.now();
    if (medium) {
        req::PhaseScope phase(uint32_t(Phase::Transfer));
        auto res = mach.mem().copy(
            core.id(), userCtx(*client.process()), req_va,
            userCtx(*ep.server->process()), ep.scratchVa, req_len);
        core.spend(res.cycles);
        if (!res.ok) {
            trapExit(core);
            return abortCall(CallStatus::CopyFault);
        }
        call_ctx.mode = Sel4ServerCall::Mode::IpcBuffer;
        call_ctx.serverBufVa = ep.scratchVa;
        call_ctx.reqCapacity = ep.scratchLen;
    }
    Cycles medium_copy = core.now() - t0;

    // --- Phase 3: process switch. ---------------------------------
    t0 = core.now();
    {
        req::PhaseScope phase(uint32_t(Phase::ProcessSwitch));
        if (cross_core) {
            crossCoreCalls.inc();
            hw::Core &scre = mach.core(ep.server->sched.homeCore);
            mach.sendIpi(core.id(), scre.id());
            scre.spend(costs.remoteWake);
            core.spend(costs.schedule);
        }
        core.spend(params.switchConst);
        if (!mach.config().mem.taggedTlb) {
            core.spend(mach.config().core.tlbFlush);
            mach.mem().flushTlb(core.id());
        }
        setCurrent(core.id(), ep.server);
    }
    phases.processSwitch = core.now() - t0;
    frame.phaseSpan("process_switch", t0, core.now(), core.id());

    // --- Phase 4: restore the server's context, back to user. -----
    t0 = core.now();
    {
        req::PhaseScope phase(uint32_t(Phase::Restore));
        saveRestoreRegs(core, params.fastpathRegs);
        core.spend(params.restoreConst);
        trapExit(core);
    }
    phases.restore = core.now() - t0;
    frame.phaseSpan("restore", t0, core.now(), core.id());

    // Two-copy discipline: in user mode, the server copies the
    // message to private memory before using it.
    hw::Core &handler_core =
        cross_core ? mach.core(ep.server->sched.homeCore) : core;
    if (cross_core)
        handler_core.syncTo(core.now());
    t0 = handler_core.now();
    if (large && mode == LongMsgMode::TwoCopy) {
        req::PhaseScope phase(uint32_t(Phase::Transfer));
        auto res = mach.mem().copy(
            handler_core.id(), userCtx(*ep.server->process()),
            shared->serverVa, userCtx(*ep.server->process()),
            ep.scratchVa, req_len);
        handler_core.spend(res.cycles);
        if (!res.ok)
            return abortCall(CallStatus::CopyFault);
        call_ctx.serverBufVa = ep.scratchVa;
    }
    phases.transfer = medium_copy + (handler_core.now() - t0);
    if (large) {
        // Include the client-side shared-buffer fill.
        phases.transfer += trap_start - start;
    }
    if (phases.transfer.value() > 0)
        frame.phaseSpan("transfer", t0, t0 + phases.transfer,
                        handler_core.id());

    out.oneWay = (handler_core.now() > core.now() ? handler_core.now()
                                                  : core.now()) -
                 start;

    // Data-corruption chaos: the transfer delivered the request, now
    // break it before the handler parses it. Even args flip one bit;
    // odd args truncate the visible length (the envelope's length
    // check is what catches that one).
    if (fault && fault->op == FaultOp::CorruptPayload && req_len > 0) {
        if (fault->arg & 1) {
            uint64_t cut = 1 + ((fault->arg >> 1) % 7);
            call_ctx.reqLen = req_len > cut ? req_len - cut : 0;
        } else {
            uint64_t at = (fault->arg >> 1) % req_len;
            uint8_t flip = uint8_t(1u << ((fault->arg >> 1) % 8));
            if (call_ctx.mode == Sel4ServerCall::Mode::Registers) {
                call_ctx.regs[at] ^= flip;
            } else {
                VAddr va = call_ctx.reqBufVa();
                uint8_t b = 0;
                if (userRead(core, *ep.server->process(), va + at, &b,
                             1)
                        .ok) {
                    b ^= flip;
                    userWrite(core, *ep.server->process(), va + at, &b,
                              1);
                }
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

    // --- The handler runs in the server's address space. ----------
    // Stall / slowdown faults strike here, while the server owns the
    // request. A stall only fires when a deadline is armed - without
    // a budget to exceed it would wedge the caller forever.
    bool stall_injected = false;
    uint32_t slow_factor = 1;
    if (fault && fault->op == FaultOp::StallServer && deadline != 0) {
        stall_injected = true;
        inj->recordFired(*fault);
    } else if (fault && fault->op == FaultOp::SlowServer) {
        slow_factor = fault->arg > 1 ? fault->arg : 2;
        inj->recordFired(*fault);
    }
    auto run_handler = [&](hw::Core &hcore, Sel4ServerCall &ctx) {
        if (stall_injected) {
            // Busy-loop past the deadline; no reply is produced.
            uint64_t now = hcore.now().value();
            hcore.spend(Cycles(
                (deadline > now ? deadline - now : 0) + 1000));
            return;
        }
        Cycles h0 = hcore.now();
        ep.handler(ctx);
        if (slow_factor > 1)
            hcore.spend((hcore.now() - h0) * (slow_factor - 1));
    };

    uint32_t hlane = req::threadLane(uint32_t(ep.server->id()));
    if (cross_core) {
        Sel4ServerCall remote(*this, handler_core, *ep.server);
        remote.client = &client;
        remote.op = call_ctx.op;
        remote.reqLen = call_ctx.reqLen;
        remote.reqCapacity = call_ctx.reqCapacity;
        remote.replyCapacity = call_ctx.replyCapacity;
        remote.longMode = call_ctx.longMode;
        remote.mode = call_ctx.mode;
        std::memcpy(remote.regs, call_ctx.regs, sizeof(remote.regs));
        remote.serverBufVa = call_ctx.serverBufVa;
        remote.sharedVa = call_ctx.sharedVa;
        remote.replySharedVa = call_ctx.replySharedVa;
        Cycles h0 = handler_core.now();
        {
            req::PhaseScope phase(uint32_t(Phase::Handler));
            run_handler(handler_core, remote);
        }
        out.handlerCycles = handler_core.now() - h0;
        frame.handlerSpan(h0, handler_core.now(), hlane);
        call_ctx.replyLen = remote.replyLen;
        call_ctx.replyInBuffer = remote.replyInBuffer;
        call_ctx.failStatus = remote.failStatus;
        std::memcpy(call_ctx.regsReply, remote.regsReply,
                    sizeof(remote.regsReply));
        mach.sendIpi(handler_core.id(), core.id());
        core.syncTo(handler_core.now());
        core.spend(costs.remoteWake);
    } else {
        Cycles h0 = core.now();
        {
            req::PhaseScope phase(uint32_t(Phase::Handler));
            run_handler(core, call_ctx);
        }
        out.handlerCycles = core.now() - h0;
        frame.handlerSpan(h0, core.now(), hlane);
    }

    if (inj)
        inj->clearHandoffMutation();

    if (frame.expired(core)) {
        // The deadline expired while the server held the request
        // (stalled, slow, or genuinely long handler). The kernel
        // unwinds back to the client and discards whatever partial
        // reply exists - the caller already gave up on it.
        deadlineExpired.inc();
        trace::Tracer::global().instantNow("sel4", "deadline_expired",
                                           clane);
        return abortCall(CallStatus::DeadlineExpired);
    }

    // A handler-flagged failure (nested call went wrong, message
    // access faulted) aborts the reply: the caller gets the status,
    // not a half-built message.
    if (call_ctx.failStatus != CallStatus::Ok)
        return abortCall(call_ctx.failStatus);

    // Data-corruption chaos: garbage the staged reply after the
    // handler sealed it, before it travels back to the client.
    if (fault && fault->op == FaultOp::GarbageReply &&
        call_ctx.replyLen > 0) {
        uint64_t at = fault->arg % call_ctx.replyLen;
        if (!call_ctx.replyInBuffer) {
            call_ctx.regsReply[at] ^= 0xA5;
        } else {
            uint8_t b = 0;
            if (userRead(core, *ep.server->process(),
                         call_ctx.replyDst() + at, &b, 1)
                    .ok) {
                b ^= 0xA5;
                userWrite(core, *ep.server->process(),
                          call_ctx.replyDst() + at, &b, 1);
            }
        }
        inj->recordFired(*fault);
    }

    // --- Reply: transfer back, then the return IPC. ---------------
    uint64_t reply_len = call_ctx.replyLen;
    panic_if(reply_len > reply_cap, "reply overflows client buffer");
    if (reply_len > 0) {
        req::PhaseScope phase(uint32_t(Phase::Transfer));
        if (!call_ctx.replyInBuffer) {
            // Reply travelled in registers.
            auto res = userWrite(core, *client.process(), reply_va,
                                 call_ctx.regsReply, reply_len);
            if (!res.ok)
                return abortCall(CallStatus::CopyFault);
        } else if (reply_len > params.ipcBufMax) {
            // Large reply through the shared window.
            panic_if(!shared, "large reply without a shared buffer");
            if (call_ctx.replySharedVa == 0) {
                // Two-copy: server private reply -> shared window.
                auto res = mach.mem().copy(
                    core.id(), userCtx(*ep.server->process()),
                    ep.scratchVa, userCtx(*ep.server->process()),
                    shared->serverVa, reply_len);
                core.spend(res.cycles);
                if (!res.ok)
                    return abortCall(CallStatus::CopyFault);
            }
            auto res = mach.mem().copy(
                core.id(), userCtx(*client.process()),
                shared->clientVa, userCtx(*client.process()),
                reply_va, reply_len);
            core.spend(res.cycles);
            if (!res.ok)
                return abortCall(CallStatus::CopyFault);
        } else {
            // Small/medium reply from a buffer: kernel copy on the
            // slow path.
            VAddr src = call_ctx.replySharedVa ? call_ctx.replySharedVa
                                               : ep.scratchVa;
            auto res = mach.mem().copy(
                core.id(), userCtx(*ep.server->process()), src,
                userCtx(*client.process()), reply_va, reply_len);
            core.spend(res.cycles);
            if (!res.ok)
                return abortCall(CallStatus::CopyFault);
            core.spend(params.slowpathExtra);
        }
    }

    // Return-direction IPC (seL4's ReplyRecv fast path).
    trapEnter(core);
    saveRestoreRegs(core, params.fastpathRegs);
    core.spend(params.trapConst);
    core.spend(params.logicConst);
    core.spend(params.switchConst);
    if (!mach.config().mem.taggedTlb) {
        core.spend(mach.config().core.tlbFlush);
        mach.mem().flushTlb(core.id());
    }
    setCurrent(core.id(), &client);
    saveRestoreRegs(core, params.fastpathRegs);
    core.spend(params.restoreConst);
    trapExit(core);

    lastPhases = phases;
    phaseStats.record(Phase::Trap, phases.trap);
    phaseStats.record(Phase::IpcLogic, phases.logic);
    phaseStats.record(Phase::ProcessSwitch, phases.processSwitch);
    phaseStats.record(Phase::Restore, phases.restore);
    phaseStats.record(Phase::Transfer, phases.transfer);
    phaseStats.record(Phase::RoundTrip, core.now() - start);
    phaseStats.record(Phase::OneWay, out.oneWay);
    out.ok = true;
    out.replyLen = reply_len;
    out.roundTrip = core.now() - start;
    return out;
}

} // namespace xpc::kernel
