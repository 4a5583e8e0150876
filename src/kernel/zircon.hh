/**
 * @file
 * A behavioural model of Zircon channel IPC.
 *
 * Zircon has no synchronous-call fast path: a round trip is a
 * zx_channel_write, a scheduler hop to the server, a zx_channel_read
 * (kernel "twofold copy" on each direction), the handler, and the
 * same path back. That is why the paper measures it at tens of
 * thousands of cycles per round trip, and why batching (e.g. lwIP's
 * send buffering) helps it disproportionately.
 */

#ifndef XPC_KERNEL_ZIRCON_HH
#define XPC_KERNEL_ZIRCON_HH

#include <functional>
#include <map>
#include <vector>

#include "kernel/kernel.hh"
#include "sim/phase.hh"

namespace xpc::kernel {

/** Calibrated software-cost constants of the channel path. */
struct ZirconParams
{
    /** Syscall entry/dispatch logic per zx_channel_* call. */
    Cycles syscallConst{600};
    /** Port/object wait bookkeeping when blocking. */
    Cycles portWait{1200};
    /** Scheduler hop between client and server threads. */
    Cycles schedule{3000};
    /** Registers saved on a syscall. */
    uint32_t syscallRegs = 31;
    /** Largest single channel message. */
    uint64_t maxMsgBytes = 64 * 1024;
};

class ZirconKernel;

/** Server-side view of one received channel message. */
class ZirconServerCall
{
  public:
    uint64_t opcode() const { return op; }
    uint64_t requestLen() const { return reqLen; }

    /** Charged read from the server's private message buffer. */
    void readRequest(uint64_t off, void *dst, uint64_t len);
    /** Charged in-place update of the request (handover plumbing). */
    void writeRequest(uint64_t off, const void *src, uint64_t len);
    /** Charged write into the server's private reply buffer. */
    void writeReply(uint64_t off, const void *src, uint64_t len);
    void setReplyLen(uint64_t len);

    /** Reply bytes staged so far (envelope sealing reads them back). */
    uint64_t replyBytes() const { return replyLen; }
    /** Charged read-back of staged reply bytes (envelope sealing). */
    void readReply(uint64_t off, void *dst, uint64_t len);

    hw::Core &core() { return coreRef; }
    Thread &serverThread() { return server; }
    /** The calling thread (channel peer). */
    Thread *callerThread() { return client; }

    /** Mark the whole invocation failed (see Sel4ServerCall::fail). */
    void fail(CallStatus status) { failStatus = status; }
    CallStatus failStatus = CallStatus::Ok;

  private:
    friend class ZirconKernel;

    ZirconServerCall(ZirconKernel &k, hw::Core &c, Thread &s)
        : owner(k), coreRef(c), server(s)
    {}

    ZirconKernel &owner;
    hw::Core &coreRef;
    Thread &server;
    Thread *client = nullptr;
    uint64_t op = 0;
    uint64_t reqLen = 0;
    uint64_t replyLen = 0;
    uint64_t replyCapacity = 0;
    VAddr reqVa = 0;   ///< server-private request buffer
    VAddr replyVa = 0; ///< server-private reply buffer
};

/** Zircon-like kernel personality. */
class ZirconKernel : public Kernel
{
  public:
    using ServerCall = ZirconServerCall;
    using Handler = std::function<void(ServerCall &)>;

    explicit ZirconKernel(hw::Machine &machine);

    ZirconParams params;

    /** Create a channel served by @p server running @p handler. */
    uint64_t createChannel(Thread &server, Handler handler);

    /**
     * Synchronous call over channel @p ch: write request, block on
     * the reply, read it back into @p reply_va.
     */
    CallOutcome call(hw::Core &core, Thread &client, uint64_t ch,
                     uint64_t opcode, VAddr req_va, uint64_t req_len,
                     VAddr reply_va, uint64_t reply_cap);

    Counter channelMsgs;

    /** Registry-visible phase attribution (one-way/handler/round
     *  trip; Zircon has no fast-path phase split to attribute). */
    PhaseStats phaseStats{"phases", &stats};

  private:
    struct Channel
    {
        uint64_t id;
        Thread *server;
        Handler handler;
        /** Kernel-owned message buffer (the twofold-copy staging). */
        PAddr kernelBuf = 0;
        /** Server-private request/reply buffers. */
        VAddr serverReqVa = 0;
        VAddr serverReplyVa = 0;
    };

    std::vector<Channel> channels;

    /** One zx_channel syscall's fixed cost. */
    void chargeSyscall(hw::Core &core);

    friend class ZirconServerCall;
};

} // namespace xpc::kernel

#endif // XPC_KERNEL_ZIRCON_HH
