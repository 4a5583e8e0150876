/**
 * @file
 * Kernel base: processes, threads, traps, context switches and timed
 * user-memory access. Sel4Kernel and ZirconKernel specialize the IPC
 * path on top of this.
 */

#ifndef XPC_KERNEL_KERNEL_HH
#define XPC_KERNEL_KERNEL_HH

#include <memory>
#include <string>
#include <vector>

#include "hw/machine.hh"
#include "kernel/address_space.hh"
#include "kernel/thread.hh"

namespace xpc {
struct FaultEvent;
}

namespace xpc::kernel {

/**
 * Why a cross-process call did (or did not) complete. Kernels fill
 * this into their call outcomes; the transports forward it to
 * clients as a TransportStatus so a faulting call is an error the
 * caller can handle instead of a simulator abort.
 */
enum class CallStatus
{
    Ok,
    /** Caller lacks the capability for the target. */
    NoCapability,
    /** A request or reply copy faulted mid-transfer. */
    CopyFault,
    /** The callee overran its budget; the kernel unwound the call. */
    Timeout,
    /** No idle invocation context at the callee. */
    Exhausted,
    /** The callee's process died while the call was in flight. */
    ServiceDead,
    /** The relay segment was revoked while the callee held it. */
    SegRevoked,
    /** The linkage record under the call was corrupt. */
    LinkageCorrupt,
    /** The transfer instruction itself faulted (engine exception). */
    EngineFault,
    /** A nested (handover) call the handler issued failed. */
    NestedFailure,
    /** The server shed the request at admission (load shedding). */
    Overloaded,
    /** The request's deadline expired before a reply was produced. */
    DeadlineExpired,
    /** The client-side circuit breaker is open; call not attempted. */
    BreakerOpen,
    /** The per-(tenant, service) retry budget is spent; the retry
     *  failed fast instead of amplifying the overload. */
    RetryBudgetExhausted,
    /** An end-to-end envelope check failed (corrupt/truncated/
     *  malformed message bytes), or a hardened parser rejected a
     *  request whose framing did not survive validation. */
    IntegrityViolation,
};

const char *callStatusName(CallStatus status);

/** Outcome of a synchronous kernel IPC: an seL4 endpoint call or a
 *  Zircon channel write + wait + read. */
struct CallOutcome
{
    bool ok = false;
    CallStatus status = CallStatus::Ok;
    uint64_t replyLen = 0;
    /** Cycles from invocation until the server saw the request. */
    Cycles oneWay;
    /** Full round-trip cycles on the client core. */
    Cycles roundTrip;
    /** Cycles spent inside the server handler (not IPC overhead). */
    Cycles handlerCycles;
};

/** A process: one address space plus one or more threads. */
class Process
{
  public:
    Process(ProcessId id, std::string name, hw::Machine &machine);

    ProcessId id() const { return procId; }
    const std::string &name() const { return procName; }
    AddressSpace &space() { return addressSpace; }

    /** Allocate zeroed user RW memory; convenience over allocMap. */
    VAddr alloc(uint64_t len);

    /** Threads belonging to this process (non-owning). */
    std::vector<Thread *> threads;

    bool dead = false;

  private:
    ProcessId procId;
    std::string procName;
    AddressSpace addressSpace;
};

/** Software cost constants shared by both kernel personalities. */
struct KernelCosts
{
    /** Run-queue manipulation + pick-next on a scheduling event. */
    Cycles schedule{2600};
    /** Blocking a thread and waking another on a remote core (on top
     *  of the IPI itself). */
    Cycles remoteWake{1600};
};

/**
 * The kernel base. Owns every process and thread and the per-core
 * notion of "current thread"; charges privilege transitions and
 * context switches using the machine's cost model.
 */
class Kernel
{
  public:
    explicit Kernel(hw::Machine &machine);
    virtual ~Kernel() = default;

    hw::Machine &machine() { return mach; }
    KernelCosts costs;

    /**
     * Per-call deadline budget for top-level kernel IPC (0 = off,
     * the default). When set, every outermost call mints an absolute
     * deadline of now + callDeadline; nested hops inherit the
     * tightest enclosing deadline and the kernel aborts the call
     * with CallStatus::DeadlineExpired once the cycle clock passes
     * it, instead of letting a stalled server block the caller.
     */
    Cycles callDeadline{0};

    /** Calls aborted because their deadline expired. */
    Counter deadlineExpired;

    Process &createProcess(const std::string &name);
    Thread &createThread(Process &process, CoreId home_core);

    Thread *current(CoreId core) const { return currentThread[core]; }
    void setCurrent(CoreId core, Thread *t) { currentThread[core] = t; }

    /// @name Trap path cost charging.
    /// @{
    /** user -> kernel transition. */
    void trapEnter(hw::Core &core);
    /** kernel -> user transition. */
    void trapExit(hw::Core &core);
    /** Save or restore @p nregs general-purpose registers. */
    void saveRestoreRegs(hw::Core &core, uint32_t nregs);
    /// @}

    /**
     * Full kernel context switch on @p core to @p next: registers,
     * scheduler bookkeeping, address-space switch (flushing an
     * untagged TLB), XPC CSR swap.
     */
    void contextSwitchTo(hw::Core &core, Thread &next);

    /// @name Timed user-memory access on behalf of a process.
    /// @{
    mem::TransContext userCtx(Process &process) const;
    mem::AccessResult userRead(hw::Core &core, Process &process,
                               VAddr va, void *dst, uint64_t len);
    mem::AccessResult userWrite(hw::Core &core, Process &process,
                                VAddr va, const void *src, uint64_t len);
    /// @}

    Counter traps;
    Counter contextSwitches;

    /** Registry node; subclasses add their own stats under it. */
    StatGroup stats{"kernel"};

  protected:
    /// @name Fault-injection hooks of the kernel IPC paths.
    /// @{
    /**
     * Draw the scheduled fault of the call now starting (nullptr =
     * none). A copy fault is armed here as a one-shot memory fault
     * that the next copy on the call path consumes; the other kinds
     * strike later, at their phase.
     */
    const FaultEvent *drawCallFault();
    /** A handler fetched request bytes: true when the armed
     *  MutateAfterHandoff strikes now (the caller must mutate). */
    bool handoffStrikes();
    /**
     * MutateAfterHandoff on a buffer: once it strikes, the hostile
     * peer XORs 0xA5 into the (up to 8) bytes at @p va the handler
     * just fetched, in the source buffer, so a second fetch of the
     * same field disagrees with the first (the TOCTOU double fetch).
     */
    void hostileRewrite(hw::Core &core, Process &process, VAddr va,
                        uint64_t len);
    /// @}

    hw::Machine &mach;
    std::vector<std::unique_ptr<Process>> processes;
    std::vector<std::unique_ptr<Thread>> threads;
    std::vector<Thread *> currentThread;
    Asid nextAsid = 1;
};

} // namespace xpc::kernel

#endif // XPC_KERNEL_KERNEL_HH
