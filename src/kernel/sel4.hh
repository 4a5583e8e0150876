/**
 * @file
 * A behavioural model of seL4's synchronous endpoint IPC, with the
 * phase structure and message-size policy of the paper's section 2.2:
 *
 *   trap -> IPC logic -> process switch -> restore
 *
 * Messages <= 32 B travel in registers on the fast path; 33..120 B
 * take the slow path with a kernel copy through IPC buffers; larger
 * messages go through user-level shared memory, in a one-copy
 * (TOCTTOU-prone) or two-copy (safe) discipline. Cross-core calls add
 * IPIs and scheduler work.
 */

#ifndef XPC_KERNEL_SEL4_HH
#define XPC_KERNEL_SEL4_HH

#include <functional>
#include <map>

#include "kernel/kernel.hh"
#include "sim/phase.hh"

namespace xpc::kernel {

/** Fast-path phase latencies of the most recent call (Table 1). */
struct Sel4Phases
{
    Cycles trap;
    Cycles logic;
    Cycles processSwitch;
    Cycles restore;
    Cycles transfer;

    Cycles
    sum() const
    {
        return trap + logic + processSwitch + restore + transfer;
    }
};

/** Shared-memory copy discipline for long messages. */
enum class LongMsgMode
{
    /** Server works in the shared buffer directly (TOCTTOU risk). */
    OneCopy,
    /** Server copies to private memory before use (safe). */
    TwoCopy,
};

/** Calibrated software-cost constants of the IPC path. */
struct Sel4Params
{
    Cycles trapConst{38};
    Cycles logicConst{208};
    Cycles switchConst{136};
    Cycles restoreConst{127};
    /** Extra cost of leaving the fast path (scheduling allowed). */
    Cycles slowpathExtra{1400};
    /** Registers saved/restored on the fast path. */
    uint32_t fastpathRegs = 17;
    /** Bytes that fit in message registers. */
    uint64_t regMsgMax = 32;
    /** IPC buffer size: above regMsgMax and up to this, slow path. */
    uint64_t ipcBufMax = 120;
    /** Capacity of a client/server shared buffer. */
    uint64_t sharedBufBytes = 256 * 1024;
};

class Sel4Kernel;

/**
 * The server's view of one in-progress call; passed to the endpoint
 * handler. All request/reply access is charged to the executing core
 * and respects the transfer mode of the message.
 */
class Sel4ServerCall
{
  public:
    uint64_t opcode() const { return op; }
    uint64_t requestLen() const { return reqLen; }

    /** Charged read of request bytes. */
    void readRequest(uint64_t off, void *dst, uint64_t len);
    /** Charged in-place update of the request (handover plumbing). */
    void writeRequest(uint64_t off, const void *src, uint64_t len);
    /** Charged write of reply bytes. */
    void writeReply(uint64_t off, const void *src, uint64_t len);
    void setReplyLen(uint64_t len);

    /** Reply bytes staged so far (envelope sealing reads them back). */
    uint64_t replyBytes() const { return replyLen; }
    /** Charged read-back of staged reply bytes (envelope sealing). */
    void readReply(uint64_t off, void *dst, uint64_t len);

    hw::Core &core() { return coreRef; }
    Thread &serverThread() { return server; }
    /** The calling thread (the kernel knows its IPC partner). */
    Thread *callerThread() { return client; }

    /**
     * Mark the whole invocation failed (a nested call the handler
     * depended on went wrong, or a message access faulted). The
     * kernel aborts the reply and surfaces @p status to the caller.
     */
    void fail(CallStatus status) { failStatus = status; }
    CallStatus failStatus = CallStatus::Ok;

  private:
    friend class Sel4Kernel;

    enum class Mode { Registers, IpcBuffer, Shared };

    Sel4ServerCall(Sel4Kernel &k, hw::Core &c, Thread &s)
        : owner(k), coreRef(c), server(s)
    {}

    Sel4Kernel &owner;
    hw::Core &coreRef;
    Thread &server;
    Thread *client = nullptr;
    uint64_t op = 0;
    uint64_t reqLen = 0;
    /** Writable extent of the request representation (the handler
     *  may build forwarded messages beyond reqLen, up to here). */
    uint64_t reqCapacity = 0;
    uint64_t replyLen = 0;
    uint64_t replyCapacity = 0;
    Mode mode = Mode::Registers;
    LongMsgMode longMode = LongMsgMode::TwoCopy;
    /** Registers-mode staging (host memory = register file). */
    uint8_t regs[32];
    uint8_t regsReply[32];
    /** Server-VA of the buffer the handler reads/writes. */
    VAddr serverBufVa = 0;
    /** Shared-mode: server VA of the shared window (one-copy). */
    VAddr sharedVa = 0;
    /** One-copy mode: where reply bytes are produced directly. */
    VAddr replySharedVa = 0;
    /** True once the reply outgrew the message registers. */
    bool replyInBuffer = false;

    VAddr
    replyDst() const
    {
        return replySharedVa ? replySharedVa : serverBufVa;
    }

    /** Server VA of the request bytes in a buffer mode: one-copy
     *  handlers work in the shared window itself. */
    VAddr
    reqBufVa() const
    {
        return mode == Mode::Shared && longMode == LongMsgMode::OneCopy
                   ? sharedVa
                   : serverBufVa;
    }
};

/** seL4-like microkernel personality. */
class Sel4Kernel : public Kernel
{
  public:
    using ServerCall = Sel4ServerCall;
    using Handler = std::function<void(ServerCall &)>;

    explicit Sel4Kernel(hw::Machine &machine);

    Sel4Params params;

    /** Create an endpoint owned by @p server running @p handler. */
    uint64_t createEndpoint(Thread &server, Handler handler);

    /** Give @p client the right to call endpoint @p ep. */
    void grantEndpointCap(Thread &client, uint64_t ep);

    /**
     * Synchronous call: request bytes at @p req_va (client VA), reply
     * delivered to @p reply_va (client VA, capacity @p reply_cap).
     */
    CallOutcome call(hw::Core &core, Thread &client, uint64_t ep,
                     uint64_t opcode, VAddr req_va, uint64_t req_len,
                     VAddr reply_va, uint64_t reply_cap,
                     LongMsgMode mode = LongMsgMode::TwoCopy);

    /** Phase breakdown of the most recent fast-path call (Table 1). */
    Sel4Phases lastPhases;

    /** Registry-visible phase attribution (Table 1 taxonomy). */
    PhaseStats phaseStats{"phases", &stats};

    Counter fastpathCalls;
    Counter slowpathCalls;
    Counter crossCoreCalls;

  private:
    struct SharedBuf
    {
        VAddr clientVa = 0;
        VAddr serverVa = 0;
        uint64_t len = 0;
    };

    struct Endpoint
    {
        uint64_t id;
        Thread *server;
        Handler handler;
        /** Server-private scratch for two-copy and IPC-buffer modes. */
        VAddr scratchVa = 0;
        uint64_t scratchLen = 0;
        /** Shared windows keyed by client thread. */
        std::map<ThreadId, SharedBuf> shared;
    };

    std::vector<Endpoint> endpoints;
    std::map<std::pair<ThreadId, uint64_t>, bool> endpointCaps;

    SharedBuf &sharedFor(Endpoint &ep, Thread &client);
    friend class Sel4ServerCall;
};

} // namespace xpc::kernel

#endif // XPC_KERNEL_SEL4_HH
