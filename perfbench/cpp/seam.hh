/**
 * @file
 * Host-time spans at the benchmark's seams: app op -> Transport::call
 * -> service handler -> nested call -> nested handler.
 *
 * TracingTransport decorates the transport a rig hands to its clients
 * and services, after the pattern of core::RecordingTransport. Every
 * handler passed to registerService is wrapped, and the ServerApi the
 * handler sees is wrapped too, so nested callService /
 * callServiceScratch hops are spans of their own. Spans live in a
 * SpanLog in memory; self times are folded per span name when a
 * measured phase ends, and the log of the last phase can be written
 * out as JSON. Only host wall-clock is recorded: the decorator must
 * not change a single simulated cycle (run.py checks that the traced
 * and untraced digests are equal).
 */

#ifndef XPC_PERFBENCH_SEAM_HH
#define XPC_PERFBENCH_SEAM_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/transport.hh"

namespace perfbench {

namespace core = xpc::core;
namespace hw = xpc::hw;
namespace kernel = xpc::kernel;

/** One closed span. Times are host nanoseconds since the log began. */
struct Span
{
    uint32_t name = 0;
    uint32_t parent = 0; ///< index + 1 into SpanLog::spans, 0 = root
    uint64_t op = 0;     ///< id of the app op the span belongs to
    int64_t startNs = 0;
    int64_t endNs = 0;
};

class SpanLog
{
  public:
    uint32_t
    intern(const std::string &name)
    {
        auto it = ids.find(name);
        if (it != ids.end())
            return it->second;
        names.push_back(name);
        return ids[name] = uint32_t(names.size() - 1);
    }

    /** Open a span; returns the handle close() takes. */
    uint32_t
    open(uint32_t name)
    {
        Span s;
        s.name = name;
        s.parent = stack.empty() ? 0 : stack.back() + 1;
        s.op = opId;
        s.startNs = now();
        spans.push_back(s);
        stack.push_back(uint32_t(spans.size() - 1));
        return stack.back();
    }

    void
    close(uint32_t handle)
    {
        spans[handle].endNs = now();
        stack.pop_back();
    }

    /** Start a new app op (spans opened at the root take its id). */
    void nextOp() { opId++; }

    /**
     * Fold the spans recorded so far into per-name self time (span
     * minus the part its children cover), and count the spans whose
     * parent is a root: the calls the app ops made themselves.
     */
    void
    fold(std::map<std::string, double> &self_ns, uint64_t &app_calls) const
    {
        std::vector<int64_t> child(spans.size(), 0);
        for (size_t i = 0; i < spans.size(); i++)
            if (spans[i].parent != 0)
                child[spans[i].parent - 1] +=
                    spans[i].endNs - spans[i].startNs;
        for (size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            self_ns[names[s.name]] +=
                double(s.endNs - s.startNs - child[i]);
            if (s.parent != 0 && spans[s.parent - 1].parent == 0)
                app_calls++;
        }
    }

    void
    clear()
    {
        spans.clear();
        stack.clear();
    }

    /** Dump every span as {"name","parent","op","start_ns","end_ns"}. */
    void
    writeJson(std::ostream &os) const
    {
        os << "{\"spans\": [";
        for (size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            os << (i ? ",\n" : "\n") << "{\"id\": " << i + 1
               << ", \"name\": \"" << names[s.name]
               << "\", \"parent\": " << s.parent << ", \"op\": " << s.op
               << ", \"start_ns\": " << s.startNs
               << ", \"end_ns\": " << s.endNs << "}";
        }
        os << "\n]}\n";
    }

  private:
    int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    }

    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    std::vector<Span> spans;
    std::vector<uint32_t> stack;
    std::vector<std::string> names;
    std::map<std::string, uint32_t> ids;
    uint64_t opId = 0;
};

/** RAII span: open on construction, close on scope exit; a null log
 *  (an untraced rep) records nothing. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, uint32_t name)
        : log(log), handle(log ? log->open(name) : 0)
    {}
    ~SpanScope()
    {
        if (log)
            log->close(handle);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log;
    uint32_t handle;
};

/**
 * The handler-side seam: forwards every ServerApi operation to the
 * substrate's api and puts an "ipc" span around the two nested-call
 * entry points. A failure the substrate records on its api is mirrored
 * after every forwarded operation, so a handler that polls failStatus
 * sees what it would see untraced.
 */
class TracingApi : public core::ServerApi
{
  public:
    TracingApi(core::ServerApi &inner, SpanLog &log, uint32_t ipc)
        : inner(inner), log(log), ipcName(ipc)
    {
        failStatus = inner.failStatus;
    }

    uint64_t opcode() const override { return inner.opcode(); }
    uint64_t requestLen() const override { return inner.requestLen(); }

    void
    readRequest(uint64_t off, void *dst, uint64_t len) override
    {
        inner.readRequest(off, dst, len);
        sync();
    }

    void
    writeRequest(uint64_t off, const void *src, uint64_t len) override
    {
        inner.writeRequest(off, src, len);
        sync();
    }

    void
    writeReply(uint64_t off, const void *src, uint64_t len) override
    {
        inner.writeReply(off, src, len);
        sync();
    }

    void
    setReplyLen(uint64_t len) override
    {
        inner.setReplyLen(len);
        sync();
    }

    uint64_t
    callService(core::ServiceId svc, uint64_t opcode, uint64_t off,
                uint64_t len, uint64_t req_len) override
    {
        SpanScope span(&log, ipcName);
        uint64_t r = inner.callService(svc, opcode, off, len, req_len);
        sync();
        return r;
    }

    void
    replyFromRequest(uint64_t off, uint64_t len) override
    {
        inner.replyFromRequest(off, len);
        sync();
    }

    uint64_t
    callServiceScratch(core::ServiceId svc, uint64_t opcode,
                       const void *req, uint64_t req_len, void *reply,
                       uint64_t reply_cap) override
    {
        SpanScope span(&log, ipcName);
        uint64_t r = inner.callServiceScratch(svc, opcode, req, req_len,
                                              reply, reply_cap);
        sync();
        return r;
    }

    hw::Core &core() override { return inner.core(); }
    kernel::Thread *callerThread() override
    {
        return inner.callerThread();
    }
    uint64_t replyLen() const override { return inner.replyLen(); }
    void
    readReply(uint64_t off, void *dst, uint64_t len) override
    {
        inner.readReply(off, dst, len);
    }

  private:
    void
    sync()
    {
        if (inner.failStatus != core::TransportStatus::Ok)
            failStatus = inner.failStatus;
    }

    core::ServerApi &inner;
    SpanLog &log;
    uint32_t ipcName;
};

/** The client-side seam: a pass-through transport that records spans. */
class TracingTransport : public core::Transport
{
  public:
    TracingTransport(core::Transport &inner, SpanLog &log)
        : inner(inner), log(log), ipcName(log.intern("ipc"))
    {}

    const char *name() const override { return inner.name(); }
    kernel::Kernel &kernelRef() override { return inner.kernelRef(); }

    core::ServiceId
    registerService(const core::ServiceDesc &desc,
                    core::ServiceHandler handler) override
    {
        uint32_t span_name = log.intern("services." + desc.name);
        SpanLog *lg = &log;
        uint32_t ipc = ipcName;
        core::ServiceId id = inner.registerService(
            desc, [lg, span_name, ipc,
                   handler = std::move(handler)](core::ServerApi &api) {
                SpanScope span(lg, span_name);
                TracingApi traced(api, *lg, ipc);
                handler(traced);
                if (traced.failStatus != core::TransportStatus::Ok)
                    api.fail(traced.failStatus);
            });
        // Keep the descriptor table in step for lookup/negotiation.
        recordDesc(desc);
        return id;
    }

    void
    connect(kernel::Thread &client, core::ServiceId svc) override
    {
        inner.connect(client, svc);
    }

    xpc::VAddr
    requestArea(hw::Core &core, kernel::Thread &client,
                uint64_t len) override
    {
        return inner.requestArea(core, client, len);
    }

    bool
    clientWrite(hw::Core &core, kernel::Thread &client, uint64_t off,
                const void *src, uint64_t len) override
    {
        return inner.clientWrite(core, client, off, src, len);
    }

    bool
    clientRead(hw::Core &core, kernel::Thread &client, uint64_t off,
               void *dst, uint64_t len) override
    {
        return inner.clientRead(core, client, off, dst, len);
    }

    core::CallResult
    call(hw::Core &core, kernel::Thread &client, core::ServiceId svc,
         uint64_t opcode, uint64_t req_len, uint64_t reply_cap) override
    {
        SpanScope span(&log, ipcName);
        return inner.call(core, client, svc, opcode, req_len, reply_cap);
    }

    uint64_t
    scratchCall(hw::Core &core, kernel::Thread &caller, bool in_handler,
                core::ServiceId svc, uint64_t opcode, const void *req,
                uint64_t req_len, void *reply,
                uint64_t reply_cap) override
    {
        SpanScope span(&log, ipcName);
        return inner.scratchCall(core, caller, in_handler, svc, opcode,
                                 req, req_len, reply, reply_cap);
    }

    void
    prepareScratch(hw::Core &core, kernel::Thread &server,
                   uint64_t len) override
    {
        inner.prepareScratch(core, server, len);
    }

  private:
    core::Transport &inner;
    SpanLog &log;
    uint32_t ipcName;
};

} // namespace perfbench

#endif // XPC_PERFBENCH_SEAM_HH
