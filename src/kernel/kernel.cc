#include "kernel.hh"

#include "sim/fault_injector.hh"
#include "sim/logging.hh"

namespace xpc::kernel {

Process::Process(ProcessId id, std::string name, hw::Machine &machine)
    : procId(id), procName(std::move(name)),
      addressSpace(Asid(id), machine)
{
}

VAddr
Process::alloc(uint64_t len)
{
    return addressSpace.allocMap(len, mem::permsRW);
}

Kernel::Kernel(hw::Machine &machine)
    : mach(machine), currentThread(machine.coreCount(), nullptr)
{
    stats.addCounter("traps", &traps);
    stats.addCounter("context_switches", &contextSwitches);
    stats.addCounter("deadline_expired", &deadlineExpired);
}

Process &
Kernel::createProcess(const std::string &name)
{
    auto id = ProcessId(processes.size() + 1);
    panic_if(id >= (1u << 16), "too many processes for the ASID space");
    processes.push_back(std::make_unique<Process>(id, name, mach));
    return *processes.back();
}

Thread &
Kernel::createThread(Process &process, CoreId home_core)
{
    panic_if(home_core >= mach.coreCount(),
             "thread homed on nonexistent core %u", home_core);
    auto id = ThreadId(threads.size() + 1);
    threads.push_back(std::make_unique<Thread>(id, &process, home_core));
    Thread &t = *threads.back();
    process.threads.push_back(&t);
    t.savedCsrs.pageTableRoot = process.space().root();
    t.savedCsrs.segList = process.space().segList();
    return t;
}

void
Kernel::trapEnter(hw::Core &core)
{
    traps.inc();
    core.spend(mach.config().core.trapEnter);
    core.setPrivilege(hw::Privilege::Kernel);
}

void
Kernel::trapExit(hw::Core &core)
{
    core.spend(mach.config().core.trapExit);
    core.setPrivilege(hw::Privilege::User);
}

void
Kernel::saveRestoreRegs(hw::Core &core, uint32_t nregs)
{
    core.spend(Cycles(mach.config().core.perRegSaveRestore.value() *
                      nregs));
}

void
Kernel::contextSwitchTo(hw::Core &core, Thread &next)
{
    contextSwitches.inc();
    Thread *prev = current(core.id());
    if (prev == &next)
        return;

    // Save + restore the architectural registers and scheduler work.
    saveRestoreRegs(core, 2 * mach.config().core.contextRegs);
    core.spend(costs.schedule);

    if (prev)
        prev->savedCsrs = core.csrs;
    core.csrs = next.savedCsrs;

    // Address-space switch.
    PAddr new_root = next.process()->space().root();
    if (core.csrs.pageTableRoot != new_root)
        core.csrs.pageTableRoot = new_root;
    if (!mach.config().mem.taggedTlb) {
        core.spend(mach.config().core.tlbFlush);
        mach.mem().flushTlb(core.id());
    }

    setCurrent(core.id(), &next);
    next.state = ThreadState::Running;
}

mem::TransContext
Kernel::userCtx(Process &process) const
{
    mem::TransContext ctx;
    ctx.pt = &process.space().pageTable();
    ctx.asid = process.space().asid();
    ctx.seg = nullptr;
    ctx.user = true;
    return ctx;
}

mem::AccessResult
Kernel::userRead(hw::Core &core, Process &process, VAddr va, void *dst,
                 uint64_t len)
{
    auto res = mach.mem().read(core.id(), userCtx(process), va, dst,
                               len);
    core.spend(res.cycles);
    return res;
}

mem::AccessResult
Kernel::userWrite(hw::Core &core, Process &process, VAddr va,
                  const void *src, uint64_t len)
{
    auto res = mach.mem().write(core.id(), userCtx(process), va, src,
                                len);
    core.spend(res.cycles);
    return res;
}

const FaultEvent *
Kernel::drawCallFault()
{
    FaultInjector *inj = mach.faultInjector();
    if (!inj || !inj->enabled)
        return nullptr;
    const FaultEvent *fault = inj->eventAt(inj->beginCall());
    if (fault && fault->op == FaultOp::CopyFault) {
        inj->armMemFault();
        inj->recordFired(*fault);
    }
    return fault;
}

bool
Kernel::handoffStrikes()
{
    FaultInjector *inj = mach.faultInjector();
    return inj && inj->noteServerRead();
}

void
Kernel::hostileRewrite(hw::Core &core, Process &process, VAddr va,
                       uint64_t len)
{
    if (!handoffStrikes())
        return;
    uint64_t n = len < 8 ? len : 8;
    uint8_t tmp[8];
    if (!userRead(core, process, va, tmp, n).ok)
        return;
    for (uint64_t i = 0; i < n; i++)
        tmp[i] ^= 0xA5;
    userWrite(core, process, va, tmp, n);
}

const char *
callStatusName(CallStatus status)
{
    switch (status) {
      case CallStatus::Ok:
        return "ok";
      case CallStatus::NoCapability:
        return "no-capability";
      case CallStatus::CopyFault:
        return "copy-fault";
      case CallStatus::Timeout:
        return "timeout";
      case CallStatus::Exhausted:
        return "exhausted";
      case CallStatus::ServiceDead:
        return "service-dead";
      case CallStatus::SegRevoked:
        return "seg-revoked";
      case CallStatus::LinkageCorrupt:
        return "linkage-corrupt";
      case CallStatus::EngineFault:
        return "engine-fault";
      case CallStatus::NestedFailure:
        return "nested-failure";
      case CallStatus::Overloaded:
        return "overloaded";
      case CallStatus::DeadlineExpired:
        return "deadline-expired";
      case CallStatus::BreakerOpen:
        return "breaker-open";
      case CallStatus::RetryBudgetExhausted:
        return "retry-budget-exhausted";
      case CallStatus::IntegrityViolation:
        return "integrity-violation";
    }
    return "unknown";
}

} // namespace xpc::kernel
