/**
 * @file
 * The kernel-IPC transports of the paper's software baselines: seL4
 * endpoints, in the one-copy or two-copy shared-memory discipline for
 * long messages, and Zircon channels, with the kernel's twofold copy
 * on every hop.
 *
 * Clients produce into a private request buffer; the kernel moves the
 * bytes (registers, IPC buffer, shared memory or channel buffer
 * depending on kernel and size); nested calls copy hop by hop. The
 * two baselines share all of that plumbing and differ only in the
 * grant model: seL4 hands the client an endpoint capability, while a
 * Zircon channel id is itself the handle.
 */

#ifndef XPC_CORE_TRANSPORT_IPC_HH
#define XPC_CORE_TRANSPORT_IPC_HH

#include <map>
#include <type_traits>
#include <vector>

#include "core/transport.hh"
#include "kernel/sel4.hh"
#include "kernel/zircon.hh"

namespace xpc::core {

/** Transport over Sel4Kernel endpoints or ZirconKernel channels. */
template <typename Kern>
class KernelIpcTransport : public Transport
{
  public:
    /** @p mode is seL4's long-message discipline; Zircon has none. */
    explicit KernelIpcTransport(
        Kern &kernel,
        kernel::LongMsgMode mode = kernel::LongMsgMode::TwoCopy);

    kernel::Kernel &kernelRef() override { return kern; }
    const char *name() const override;

    ServiceId registerService(const ServiceDesc &desc,
                              ServiceHandler handler) override;
    void connect(kernel::Thread &client, ServiceId svc) override;
    VAddr requestArea(hw::Core &core, kernel::Thread &client,
                      uint64_t len) override;
    bool clientWrite(hw::Core &core, kernel::Thread &client,
                     uint64_t off, const void *src,
                     uint64_t len) override;
    bool clientRead(hw::Core &core, kernel::Thread &client,
                    uint64_t off, void *dst, uint64_t len) override;
    CallResult call(hw::Core &core, kernel::Thread &client,
                    ServiceId svc, uint64_t opcode, uint64_t req_len,
                    uint64_t reply_cap) override;

  protected:
    bool readStagedRequest(hw::Core &core, kernel::Thread &client,
                           uint64_t off, void *dst,
                           uint64_t len) override;

  private:
    static constexpr bool isSel4 =
        std::is_same_v<Kern, kernel::Sel4Kernel>;

    struct Conn
    {
        VAddr reqVa = 0;
        VAddr replyVa = 0;
        uint64_t len = 0;
    };

    Kern &kern;
    kernel::LongMsgMode longMode;
    /** The kernel endpoint (seL4) or channel (Zircon) per service. */
    std::vector<uint64_t> targets;
    /** Per-client message buffers (shared across services: one
     *  produce area per thread, like a libc staging buffer). */
    std::map<kernel::ThreadId, Conn> conns;

    Conn &connFor(kernel::Thread &client, uint64_t min_len);
};

using Sel4Transport = KernelIpcTransport<kernel::Sel4Kernel>;
using ZirconTransport = KernelIpcTransport<kernel::ZirconKernel>;

extern template class KernelIpcTransport<kernel::Sel4Kernel>;
extern template class KernelIpcTransport<kernel::ZirconKernel>;

} // namespace xpc::core

#endif // XPC_CORE_TRANSPORT_IPC_HH
