#include "transport_ipc.hh"

#include <cstring>
#include <vector>

#include "sim/logging.hh"

namespace xpc::core {

namespace {

/** ServerApi adapter over a kernel's in-progress server call. */
template <typename Kern>
class KernelServerApi : public ServerApi
{
  public:
    KernelServerApi(KernelIpcTransport<Kern> &tr,
                    typename Kern::ServerCall &call)
        : transport(tr), call(call)
    {}

    uint64_t opcode() const override { return call.opcode(); }
    uint64_t requestLen() const override { return call.requestLen(); }

    void
    readRequest(uint64_t off, void *dst, uint64_t len) override
    {
        call.readRequest(off, dst, len);
        mirrorFailure();
    }

    void
    writeRequest(uint64_t off, const void *src, uint64_t len) override
    {
        call.writeRequest(off, src, len);
        mirrorFailure();
    }

    void
    writeReply(uint64_t off, const void *src, uint64_t len) override
    {
        call.writeReply(off, src, len);
        mirrorFailure();
    }

    void
    setReplyLen(uint64_t len) override
    {
        call.setReplyLen(len);
    }

    uint64_t
    callService(ServiceId svc, uint64_t op, uint64_t off,
                uint64_t len, uint64_t req_len) override
    {
        if (req_len == 0)
            req_len = len;
        // Baseline handover: stage the sub-message into this server's
        // own client buffer for the next hop (one copy), call, then
        // copy the nested reply back in place (another copy).
        kernel::Thread &me = call.serverThread();
        hw::Core &c = call.core();
        std::vector<uint8_t> stage(len);
        call.readRequest(off, stage.data(), req_len);
        transport.requestArea(c, me, len);
        transport.clientWrite(c, me, 0, stage.data(), req_len);
        CallResult r =
            transport.call(c, me, svc, op, req_len, len);
        if (!r.ok) {
            fail(r.status == TransportStatus::Ok
                     ? TransportStatus::NestedFailure
                     : r.status);
            return 0;
        }
        uint64_t rlen = std::min<uint64_t>(r.replyLen, len);
        if (rlen > 0) {
            transport.clientRead(c, me, 0, stage.data(), rlen);
            call.writeRequest(off, stage.data(), rlen);
        }
        return rlen;
    }

    void
    replyFromRequest(uint64_t off, uint64_t len) override
    {
        // The reply must materialize in the reply channel: a copy.
        std::vector<uint8_t> stage(len);
        call.readRequest(off, stage.data(), len);
        call.writeReply(off, stage.data(), len);
    }

    uint64_t
    callServiceScratch(ServiceId svc, uint64_t op, const void *req,
                       uint64_t req_len, void *reply,
                       uint64_t reply_cap) override
    {
        return transport.scratchCall(call.core(), call.serverThread(),
                                     true, svc, op, req, req_len,
                                     reply, reply_cap);
    }

    hw::Core &core() override { return call.core(); }

    kernel::Thread *
    callerThread() override
    {
        return call.callerThread();
    }

    uint64_t replyLen() const override { return call.replyBytes(); }

    void
    readReply(uint64_t off, void *dst, uint64_t len) override
    {
        call.readReply(off, dst, len);
        mirrorFailure();
    }

  private:
    /** Message accesses poison the server call; surface the first
     *  failure here too so dispatchHandler sees aborted fetches. */
    void
    mirrorFailure()
    {
        if (failStatus == TransportStatus::Ok &&
            call.failStatus != kernel::CallStatus::Ok)
            failStatus = call.failStatus;
    }

    KernelIpcTransport<Kern> &transport;
    typename Kern::ServerCall &call;
};

} // namespace

template <typename Kern>
KernelIpcTransport<Kern>::KernelIpcTransport(Kern &kernel,
                                             kernel::LongMsgMode mode)
    : kern(kernel), longMode(mode)
{
}

template <typename Kern>
const char *
KernelIpcTransport<Kern>::name() const
{
    if constexpr (isSel4)
        return longMode == kernel::LongMsgMode::OneCopy ? "sel4-1copy"
                                                        : "sel4-2copy";
    else
        return "zircon";
}

template <typename Kern>
ServiceId
KernelIpcTransport<Kern>::registerService(const ServiceDesc &desc,
                                          ServiceHandler handler)
{
    panic_if(!desc.handlerThread, "service needs a handler thread");
    ServiceId id = recordDesc(desc);
    auto serve = [this, handler = std::move(handler)](
                     typename Kern::ServerCall &call) {
        KernelServerApi<Kern> api(*this, call);
        dispatchHandler(api, handler);
        if (api.failStatus != TransportStatus::Ok)
            call.fail(api.failStatus);
    };
    if constexpr (isSel4)
        targets.push_back(
            kern.createEndpoint(*desc.handlerThread, std::move(serve)));
    else
        targets.push_back(
            kern.createChannel(*desc.handlerThread, std::move(serve)));
    return id;
}

template <typename Kern>
void
KernelIpcTransport<Kern>::connect(kernel::Thread &client, ServiceId svc)
{
    // seL4 grants the client an endpoint cap. A Zircon channel id is
    // the handle itself, so there is nothing to grant; tenancy still
    // runs the grant gate so cross-tenant handouts are counted (and
    // refused under enforcement) - but the real barrier there is the
    // call-side gate, since a channel id can be guessed.
    bool granted = gateGrant(client, svc);
    if constexpr (isSel4) {
        if (granted)
            kern.grantEndpointCap(client, targets.at(svc));
    }
}

template <typename Kern>
typename KernelIpcTransport<Kern>::Conn &
KernelIpcTransport<Kern>::connFor(kernel::Thread &client,
                                  uint64_t min_len)
{
    Conn &conn = conns[client.id()];
    if (conn.len >= min_len && conn.reqVa != 0)
        return conn;
    if (conn.reqVa != 0) {
        // Grow by replacing the buffers (contents not preserved).
        client.process()->space().freeMap(conn.reqVa);
        client.process()->space().freeMap(conn.replyVa);
    }
    uint64_t len = std::max<uint64_t>(min_len, 4096);
    conn.reqVa = client.process()->alloc(len);
    conn.replyVa = client.process()->alloc(len);
    conn.len = len;
    return conn;
}

template <typename Kern>
VAddr
KernelIpcTransport<Kern>::requestArea(hw::Core &core,
                                      kernel::Thread &client, uint64_t len)
{
    (void)core;
    // Sealed calls append the envelope trailer past the staged
    // request; reserve the headroom up front so the trailer write
    // never triggers a buffer replacement that would drop it.
    return connFor(client, len + envelopeHeadroom()).reqVa;
}

template <typename Kern>
bool
KernelIpcTransport<Kern>::readStagedRequest(hw::Core &core,
                                            kernel::Thread &client,
                                            uint64_t off, void *dst,
                                            uint64_t len)
{
    Conn &conn = connFor(client, off + len);
    auto res = kern.userRead(core, *client.process(), conn.reqVa + off,
                             dst, len);
    if (!res.ok) {
        panic_if(res.fault != mem::FaultKind::Injected,
                 "staged request read faulted");
        std::memset(dst, 0, len);
    }
    return res.ok;
}

template <typename Kern>
bool
KernelIpcTransport<Kern>::clientWrite(hw::Core &core,
                                      kernel::Thread &client, uint64_t off,
                                      const void *src, uint64_t len)
{
    Conn &conn = connFor(client, off + len);
    auto res = kern.userWrite(core, *client.process(),
                              conn.reqVa + off, src, len);
    panic_if(!res.ok && res.fault != mem::FaultKind::Injected,
             "client produce faulted");
    return res.ok;
}

template <typename Kern>
bool
KernelIpcTransport<Kern>::clientRead(hw::Core &core,
                                     kernel::Thread &client, uint64_t off,
                                     void *dst, uint64_t len)
{
    Conn &conn = connFor(client, off + len);
    auto res = kern.userRead(core, *client.process(),
                             conn.replyVa + off, dst, len);
    if (!res.ok) {
        panic_if(res.fault != mem::FaultKind::Injected,
                 "client consume faulted");
        std::memset(dst, 0, len);
    }
    return res.ok;
}

template <typename Kern>
CallResult
KernelIpcTransport<Kern>::call(hw::Core &core, kernel::Thread &client,
                               ServiceId svc, uint64_t opcode,
                               uint64_t req_len, uint64_t reply_cap)
{
    if (!gateCall(client, svc))
        return deniedCall();
    // Size the buffers for the sealed wire lengths *before* sealing:
    // a growth-by-replacement after the trailer is staged would drop
    // the request bytes on the floor.
    uint64_t wire_cap = reply_cap + envelopeHeadroom();
    Conn &conn = connFor(
        client, std::max(req_len + envelopeHeadroom(), wire_cap));
    uint64_t wire_len = req_len;
    uint64_t seq = 0;
    if (envelopeEnabled) {
        wire_len = sealRequest(core, client, req_len, &seq);
        if (wire_len == sealFailed) {
            CallResult res;
            res.ok = false;
            res.status = TransportStatus::CopyFault;
            return countCall(res);
        }
        sealPending = true;
    }
    kernel::CallOutcome out;
    uint64_t reply_room = std::min(wire_cap, conn.len);
    if constexpr (isSel4)
        out = kern.call(core, client, targets.at(svc), opcode, conn.reqVa,
                        wire_len, conn.replyVa, reply_room, longMode);
    else
        out = kern.call(core, client, targets.at(svc), opcode, conn.reqVa,
                        wire_len, conn.replyVa, reply_room);
    sealPending = false;
    CallResult res;
    res.ok = out.ok;
    res.status = out.status;
    res.replyLen = out.replyLen;
    res.oneWay = out.oneWay;
    res.roundTrip = out.roundTrip;
    res.handlerCycles = out.handlerCycles;
    if (envelopeEnabled)
        res = verifySealedReply(core, client, seq, res);
    return countCall(res);
}

template class KernelIpcTransport<kernel::Sel4Kernel>;
template class KernelIpcTransport<kernel::ZirconKernel>;

} // namespace xpc::core
