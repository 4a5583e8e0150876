#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>

#include "apps/loadgen.hh"
#include "apps/minidb/minidb.hh"
#include "core/system.hh"
#include "services/block_device.hh"
#include "services/fs_server.hh"
#include "sim/random.hh"

namespace perfbench {

using namespace xpc;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Add every value under @p g to @p out, keyed by dotted path. */
void
flatten(const StatGroup &g, const std::string &prefix, Flat &out)
{
    for (const auto &[name, c] : g.counterEntries())
        out[prefix + name] += double(c->value());
    for (const auto &[name, d] : g.distributionEntries()) {
        out[prefix + name + "#count"] += double(d->count());
        out[prefix + name + "#sum"] += d->sum();
    }
    for (const auto &[name, h] : g.histogramEntries()) {
        out[prefix + name + "#hcount"] += double(h->count());
        out[prefix + name + "#hsum"] += h->sum();
    }
    for (const StatGroup *kid : g.children())
        flatten(*kid, prefix + kid->name() + ".", out);
}

/** 64-bit FNV-1a. */
class Digest
{
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const uint8_t *>(p);
        for (size_t i = 0; i < n; i++) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    void add(uint64_t v) { bytes(&v, sizeof(v)); }
    void add(const std::string &s) { bytes(s.data(), s.size()); }
    void
    add(double v)
    {
        // As text that reads back as the same double.
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        add(std::string(buf));
    }
    void
    add(const Flat &f)
    {
        for (const auto &[k, v] : f) {
            add(k);
            add(v);
        }
    }
    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ULL;
};

/** Seeded bytes: the request payloads and YCSB values. */
std::vector<uint8_t>
seededBytes(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<uint8_t> out(n);
    for (size_t i = 0; i < n; i += 8) {
        uint64_t v = rng.next();
        std::memcpy(out.data() + i, &v, std::min<size_t>(8, n - i));
    }
    return out;
}

/** A system plus the transport its clients and services use: the
 *  system's own, or the seam decorator over it on traced reps. */
struct Rig
{
    Rig(core::SystemFlavor flavor, bool zircon_board, SpanLog *spans)
    {
        core::SystemOptions opts;
        opts.flavor = flavor;
        if (zircon_board)
            opts.machine = hw::lowRiscKc705();
        sys = std::make_unique<core::System>(opts);
        tr = &sys->transport();
        if (spans) {
            traced = std::make_unique<TracingTransport>(*tr, *spans);
            tr = traced.get();
        }
    }

    std::unique_ptr<core::System> sys;
    std::unique_ptr<TracingTransport> traced;
    core::Transport *tr = nullptr;
};

/** Read each system's registry into @p rep and the digest. */
void
collectRegistry(const std::vector<const StatGroup *> &groups,
                const std::vector<std::string> &prefixes, RepResult &rep,
                Digest &dg)
{
    for (size_t i = 0; i < groups.size(); i++) {
        Flat mine;
        flatten(*groups[i], prefixes[i], mine);
        dg.add(uint64_t(i));
        dg.add(mine);
        for (const auto &[k, v] : mine)
            rep.registry[k] += v;
    }
}

// --------------------------------------------------------------- ycsb

constexpr uint64_t ycsbRecords = 1000; // paper 5.4
constexpr uint64_t ycsbValueBytes = 1000;
constexpr uint64_t ycsbOpsPerMix = 600;
constexpr uint32_t ycsbMaxScan = 100;
constexpr uint64_t ycsbWarmReads = 64;

enum class Kind { Read, Update, Insert, Scan, Rmw };
const char *const kindNames[] = {"read", "update", "insert", "scan",
                                 "rmw"};

struct YcsbOp
{
    Kind kind = Kind::Read;
    uint32_t mix = 0; ///< 0..5 = A..F
    uint64_t key = 0;
    uint32_t scanLen = 0;
};

std::string
ycsbKey(uint64_t n)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "user%016llu", (unsigned long long)n);
    return buf;
}

std::vector<uint8_t>
ycsbValue(uint64_t seed, uint64_t op)
{
    return seededBytes(seed * 0x9e3779b97f4a7c15ULL + op, ycsbValueBytes);
}

/** The standard A-F mixes over Zipfian keys, the same draws as
 *  apps::Ycsb::run, with every input fixed up front. */
std::vector<YcsbOp>
ycsbSchedule(uint64_t seed)
{
    Rng rng(seed);
    Zipfian zipf(ycsbRecords, 0.99, seed + 1);
    uint64_t inserted = ycsbRecords;
    std::vector<YcsbOp> ops;
    for (uint32_t mix = 0; mix < 6; mix++) {
        for (uint64_t i = 0; i < ycsbOpsPerMix; i++) {
            double p = rng.nextDouble();
            YcsbOp op;
            op.mix = mix;
            switch (mix) {
              case 0: // A: 50% read, 50% update
              case 1: // B: 95% read, 5% update
                op.kind = p < (mix == 0 ? 0.5 : 0.95) ? Kind::Read
                                                      : Kind::Update;
                op.key = zipf.next();
                break;
              case 2: // C: read only
                op.kind = Kind::Read;
                op.key = zipf.next();
                break;
              case 3: // D: 95% read latest, 5% insert
                if (p < 0.95) {
                    op.kind = Kind::Read;
                    op.key = inserted - 1 -
                             rng.nextBounded(std::min<uint64_t>(inserted, 64));
                } else {
                    op.kind = Kind::Insert;
                    op.key = inserted++;
                }
                break;
              case 4: // E: 95% scan, 5% insert
                if (p < 0.95) {
                    op.kind = Kind::Scan;
                    op.scanLen = 1 + uint32_t(rng.nextBounded(ycsbMaxScan));
                    op.key = zipf.next();
                } else {
                    op.kind = Kind::Insert;
                    op.key = inserted++;
                }
                break;
              default: // F: 50% read, 50% read-modify-write
                op.kind = p < 0.5 ? Kind::Read : Kind::Rmw;
                op.key = zipf.next();
                break;
            }
            ops.push_back(op);
        }
    }
    return ops;
}

/** MiniDb over Xv6Fs through the FS and block-device servers. */
struct DbStack
{
    DbStack(core::SystemFlavor flavor, SpanLog *spans)
        : rig(flavor, false, spans)
    {
        core::System &sys = *rig.sys;
        kernel::Thread &dev_t = sys.spawn("blockdev");
        kernel::Thread &fs_t = sys.spawn("fs");
        client = &sys.spawn("client");
        dev = std::make_unique<services::BlockDeviceServer>(*rig.tr, dev_t,
                                                            diskBlocks);
        rig.tr->connect(fs_t, dev->id());
        fs = std::make_unique<services::FsServer>(*rig.tr, fs_t, dev->id(),
                                                  diskBlocks);
        rig.tr->connect(*client, fs->id());
        db = std::make_unique<apps::MiniDb>(*rig.tr, sys.core(0), *client,
                                            fs->id(), "ycsb.db", 640);
    }

    static constexpr uint64_t diskBlocks = 8192;
    Rig rig;
    kernel::Thread *client = nullptr;
    std::unique_ptr<services::BlockDeviceServer> dev;
    std::unique_ptr<services::FsServer> fs;
    std::unique_ptr<apps::MiniDb> db;
};

using Shadow = std::map<std::string, std::vector<uint8_t>>;

/** One op's inputs, built before it is timed. */
struct OpInput
{
    std::string key;
    std::vector<uint8_t> value; ///< update and insert only
};

OpInput
opInput(const YcsbOp &op, uint64_t seed, uint64_t op_ix)
{
    OpInput in{ycsbKey(op.key), {}};
    if (op.kind == Kind::Update || op.kind == Kind::Insert)
        in.value = ycsbValue(seed, ycsbRecords + op_ix);
    return in;
}

/** What a get or scan returned, for checking after the timed call. */
struct OpOutput
{
    std::optional<std::vector<uint8_t>> got;
    uint32_t scanned = 0;
};

/** The timed part of an op: the MiniDb call alone. */
void
issueOp(apps::MiniDb &db, const YcsbOp &op, const OpInput &in,
        OpOutput &out)
{
    switch (op.kind) {
      case Kind::Read:
        out.got = db.get(in.key);
        break;
      case Kind::Update:
      case Kind::Insert:
        db.put(in.key, in.value.data(), uint32_t(in.value.size()));
        break;
      case Kind::Scan:
        out.scanned = db.scan(in.key, op.scanLen);
        break;
      case Kind::Rmw:
        db.readModifyWrite(in.key, 1);
        break;
    }
}

/** Check @p out against the shadow model and apply the op to it;
 *  false on mismatch. */
bool
checkOp(Shadow &shadow, const YcsbOp &op, OpInput &in, const OpOutput &out)
{
    switch (op.kind) {
      case Kind::Read: {
        auto it = shadow.find(in.key);
        return out.got && it != shadow.end() && *out.got == it->second;
      }
      case Kind::Update:
      case Kind::Insert:
        shadow[in.key] = std::move(in.value);
        return true;
      case Kind::Scan: {
        auto it = shadow.lower_bound(in.key);
        uint32_t want = 0;
        for (; it != shadow.end() && want < op.scanLen; ++it)
            want++;
        return out.scanned == want;
      }
      case Kind::Rmw:
        for (auto &b : shadow[in.key])
            b = uint8_t(b + 1);
        return true;
    }
    return false;
}

} // namespace

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

RepResult
runYcsb(const RepConfig &cfg)
{
    RepResult rep;
    const core::SystemFlavor flavors[2] = {core::SystemFlavor::Sel4TwoCopy,
                                           core::SystemFlavor::Sel4Xpc};

    // Set-up: both systems wired and loaded with the same records.
    Clock::time_point t0 = Clock::now();
    std::vector<std::unique_ptr<DbStack>> stacks;
    Shadow loaded;
    for (uint64_t i = 0; i < ycsbRecords; i++)
        loaded[ycsbKey(i)] = ycsbValue(cfg.seed, i);
    for (core::SystemFlavor f : flavors) {
        stacks.push_back(std::make_unique<DbStack>(f, cfg.spans));
        for (const auto &[k, v] : loaded)
            stacks.back()->db->put(k, v.data(), uint32_t(v.size()));
    }
    rep.setupS = secondsSince(t0);

    const std::vector<YcsbOp> ops = ycsbSchedule(cfg.seed);
    uint32_t op_names[5] = {};
    if (cfg.spans)
        for (int k = 0; k < 5; k++)
            op_names[k] = cfg.spans->intern(std::string("apps.") +
                                            kindNames[k]);

    Digest dg;
    std::vector<double> xpc_cycles;
    double mix_cycles[2][6] = {};
    for (size_t s = 0; s < stacks.size(); s++) {
        apps::MiniDb &db = *stacks[s]->db;
        hw::Core &core = stacks[s]->rig.sys->core(0);
        Shadow shadow = loaded;

        // Warm the modelled caches with reads, then start counting.
        Zipfian warm(ycsbRecords, 0.99, cfg.seed ^ 0x77a7);
        for (uint64_t i = 0; i < ycsbWarmReads; i++) {
            const YcsbOp op{Kind::Read, 0, warm.next(), 0};
            OpInput in = opInput(op, cfg.seed, 0);
            OpOutput out;
            issueOp(db, op, in, out);
            if (!checkOp(shadow, op, in, out))
                rep.failed++;
        }
        stacks[s]->rig.sys->stats().resetAll();
        if (cfg.spans)
            cfg.spans->clear();

        Clock::time_point m0 = Clock::now();
        for (size_t i = 0; i < ops.size(); i++) {
            const YcsbOp &op = ops[i];
            OpInput in = opInput(op, cfg.seed, i);
            OpOutput out;
            if (cfg.spans)
                cfg.spans->nextOp();
            Cycles c0 = core.now();
            Clock::time_point h0 = Clock::now();
            {
                SpanScope span(cfg.spans, op_names[int(op.kind)]);
                issueOp(db, op, in, out);
            }
            Clock::time_point h1 = Clock::now();
            uint64_t cycles = (core.now() - c0).value();
            if (!checkOp(shadow, op, in, out))
                rep.failed++;
            double us = microsBetween(h0, h1);
            rep.opUs.push_back(us);
            rep.opUsByKind[kindNames[int(op.kind)]].push_back(us);
            mix_cycles[s][op.mix] += double(cycles);
            rep.simCycles += cycles;
            dg.add(cycles);
            if (flavors[s] == core::SystemFlavor::Sel4Xpc)
                xpc_cycles.push_back(double(cycles));
        }
        rep.measuredS += secondsSince(m0);
        rep.ops += ops.size();
        if (cfg.spans) {
            cfg.spans->fold(rep.selfNs, rep.appRpcs);
            // Keep only the last system's spans for the span dump.
            if (s + 1 < stacks.size())
                cfg.spans->clear();
        }
    }

    std::vector<const StatGroup *> groups;
    for (auto &st : stacks)
        groups.push_back(&st->rig.sys->stats());
    collectRegistry(groups, {"", ""}, rep, dg);

    double speedup = 0;
    for (int m = 0; m < 6; m++)
        speedup += mix_cycles[0][m] / mix_cycles[1][m];
    rep.simSpeedup = speedup / 6;
    rep.simOpP50 = percentile(xpc_cycles, 0.5);
    rep.simOpP98 = percentile(xpc_cycles, 0.98);
    rep.simOpSamples = xpc_cycles.size();
    dg.add(rep.failed);
    rep.digest = dg.value();
    return rep;
}

// -------------------------------------------------------------- xcall

namespace {

constexpr uint64_t xcallSizes[4] = {0, 64, 256, 1024};
constexpr uint64_t xcallCallsPerSystem = 8000;
constexpr uint64_t xcallWarmPerSize = 16;
constexpr uint64_t xcallArea = 64 * 1024;
constexpr size_t xcallPool = 64 * 1024;

struct EchoStack
{
    EchoStack(core::SystemFlavor flavor, bool zircon_board,
              CoreId server_core, SpanLog *spans)
        : rig(flavor, zircon_board, spans)
    {
        server = &rig.sys->spawn("server", server_core);
        client = &rig.sys->spawn("client", 0);
        core::ServiceDesc desc;
        desc.name = "echo";
        desc.handlerThread = server;
        desc.maxMsgBytes = 256 * 1024;
        svc = rig.tr->registerService(desc, [](core::ServerApi &api) {
            api.replyFromRequest(0, api.requestLen());
        });
        rig.tr->connect(*client, svc);
        rig.tr->requestArea(rig.sys->core(0), *client, xcallArea);
    }

    /** One echo round trip of @p req, its reply read into @p buf;
     *  false when a transport step fails. */
    bool
    roundTrip(const uint8_t *req, uint64_t len, std::vector<uint8_t> &buf,
              core::CallResult &r)
    {
        hw::Core &core = rig.sys->core(0);
        if (len > 0 && !rig.tr->clientWrite(core, *client, 0, req, len))
            return false;
        r = rig.tr->call(core, *client, svc, 1, len, xcallArea);
        if (!r.ok || r.replyLen != len)
            return false;
        buf.resize(len);
        return len == 0 ||
               rig.tr->clientRead(core, *client, 0, buf.data(), len);
    }

    /** Whether the round trip's reply in @p buf equals @p req. */
    static bool
    echoed(const uint8_t *req, uint64_t len, const std::vector<uint8_t> &buf)
    {
        return len == 0 || std::memcmp(buf.data(), req, len) == 0;
    }

    Rig rig;
    kernel::Thread *server = nullptr;
    kernel::Thread *client = nullptr;
    core::ServiceId svc = 0;
};

} // namespace

RepResult
runXcall(const RepConfig &cfg)
{
    RepResult rep;
    struct Config
    {
        core::SystemFlavor flavor;
        bool zirconBoard;
        CoreId serverCore;
    };
    // The five flavors on one core, then seL4-2copy with the server on
    // core 1 (the IPI path). Index 0 and 2 feed Figure 6's ratio.
    const Config configs[6] = {
        {core::SystemFlavor::Sel4TwoCopy, false, 0},
        {core::SystemFlavor::Sel4OneCopy, false, 0},
        {core::SystemFlavor::Sel4Xpc, false, 0},
        {core::SystemFlavor::Zircon, true, 0},
        {core::SystemFlavor::ZirconXpc, true, 0},
        {core::SystemFlavor::Sel4TwoCopy, false, 1},
    };

    std::vector<std::string> labels;
    for (const Config &c : configs)
        labels.push_back(std::string(core::systemFlavorName(c.flavor)) +
                         (c.serverCore != 0 ? "-xcore" : ""));

    Clock::time_point t0 = Clock::now();
    std::vector<std::unique_ptr<EchoStack>> stacks;
    for (const Config &c : configs)
        stacks.push_back(std::make_unique<EchoStack>(
            c.flavor, c.zirconBoard, c.serverCore, cfg.spans));
    rep.setupS = secondsSince(t0);

    const std::vector<uint8_t> pool = seededBytes(cfg.seed, xcallPool);
    std::vector<uint32_t> offsets(xcallCallsPerSystem);
    Rng rng(cfg.seed ^ 0xec40);
    for (uint32_t &o : offsets)
        o = uint32_t(rng.nextBounded(xcallPool - 1024));
    uint32_t op_name = cfg.spans ? cfg.spans->intern("apps.xcall") : 0;

    Digest dg;
    std::vector<uint8_t> buf;
    std::vector<double> xpc_cycles;
    double one_way[6] = {};
    for (size_t s = 0; s < stacks.size(); s++) {
        EchoStack &st = *stacks[s];
        hw::Core &core = st.rig.sys->core(0);
        core::CallResult r;
        for (uint64_t i = 0; i < xcallWarmPerSize * 4; i++) {
            const uint8_t *req = pool.data() + offsets[i];
            uint64_t len = xcallSizes[i % 4];
            if (!st.roundTrip(req, len, buf, r) ||
                !EchoStack::echoed(req, len, buf))
                rep.failed++;
        }
        st.rig.sys->stats().resetAll();
        if (cfg.spans)
            cfg.spans->clear();

        Cycles start = core.now();
        Clock::time_point m0 = Clock::now();
        for (uint64_t i = 0; i < xcallCallsPerSystem; i++) {
            const uint8_t *req = pool.data() + offsets[i];
            uint64_t len = xcallSizes[i % 4];
            if (cfg.spans)
                cfg.spans->nextOp();
            Clock::time_point h0 = Clock::now();
            bool ok;
            {
                SpanScope span(cfg.spans, op_name);
                ok = st.roundTrip(req, len, buf, r);
            }
            double us = microsBetween(h0, Clock::now());
            rep.opUs.push_back(us);
            rep.opUsByKind[labels[s]].push_back(us);
            if (!ok || !EchoStack::echoed(req, len, buf))
                rep.failed++;
            dg.add(r.roundTrip.value());
            dg.add(r.oneWay.value());
            one_way[s] += double(r.oneWay.value());
            if (configs[s].flavor == core::SystemFlavor::Sel4Xpc)
                xpc_cycles.push_back(double(r.roundTrip.value()));
        }
        rep.measuredS += secondsSince(m0);
        rep.simCycles += (core.now() - start).value();
        rep.ops += xcallCallsPerSystem;
        if (cfg.spans) {
            cfg.spans->fold(rep.selfNs, rep.appRpcs);
            if (s + 1 < stacks.size())
                cfg.spans->clear();
        }
    }

    std::vector<const StatGroup *> groups;
    for (auto &st : stacks)
        groups.push_back(&st->rig.sys->stats());
    collectRegistry(groups, std::vector<std::string>(groups.size()), rep,
                    dg);

    rep.simSpeedup = one_way[0] / one_way[2];
    rep.simOpP50 = percentile(xpc_cycles, 0.5);
    rep.simOpP98 = percentile(xpc_cycles, 0.98);
    rep.simOpSamples = xpc_cycles.size();
    dg.add(rep.failed);
    rep.digest = dg.value();
    return rep;
}

// --------------------------------------------------------------- mesh

namespace {

constexpr uint64_t meshRequests = 64000;
// 0.7 x the 142 req/Mcycle knee EXPERIMENTS.md measures for this mix.
constexpr double meshOfferedPerMcycle = 100.0;
constexpr int meshMixRounds = 2;

/**
 * The @p q quantile of @p h, interpolated linearly inside its bucket:
 * Histogram::quantile reports the bucket's upper bound, which moves in
 * ~3% steps and would turn a small shift into a jump.
 */
double
histQuantile(const Histogram &h, double q)
{
    if (h.count() == 0)
        return 0;
    double rank = q * double(h.count());
    uint64_t seen = 0;
    for (size_t i = 0; i < Histogram::bucketCount; i++) {
        uint64_t n = h.bucketValue(i);
        if (n != 0 && double(seen + n) >= rank) {
            double lo = double(Histogram::bucketLow(i));
            double hi = double(Histogram::bucketHigh(i)) + 1;
            double v = lo + (rank - double(seen)) / double(n) * (hi - lo);
            return std::clamp(v, h.min(), h.max());
        }
        seen += n;
    }
    return h.max();
}

} // namespace

RepResult
runMesh(const RepConfig &cfg)
{
    // No seam: TenantRig wires its transport internally, so cfg.spans
    // stays unused and the mesh's traced reps equal its untraced ones.
    RepResult rep;
    apps::LoadGenOptions lo;
    lo.flavor = core::SystemFlavor::Sel4Xpc;
    lo.seed = cfg.seed;
    lo.tenants = 2;
    lo.kvWeight = 6;
    lo.httpWeight = 3;
    lo.fsWeight = 1;
    lo.offeredPerMcycle = meshOfferedPerMcycle;
    lo.requests = meshRequests;
    lo.deadlineCycles = Cycles(400000);
    // Each front-door service has one client, its tenant's generator
    // thread, so the per-client fair share guards nobody. Left on, it
    // sheds that thread's own bunched arrivals: some seeds lose a
    // request at every rate from 0.5 to 0.75 x the knee (one in 17 at
    // 0.67 x). The per-service watermark still applies.
    lo.admission.clientShare = 0;

    Clock::time_point t0 = Clock::now();
    apps::LoadGen gen(lo);
    rep.setupS = secondsSince(t0);

    apps::TenantRig &rig = gen.rig();
    // Registries outside the system root: the supervisor and every
    // admission controller.
    std::vector<StatGroup *> groups = {&rig.system().stats(),
                                       &rig.supervisor().stats};
    std::vector<std::string> prefixes = {"", "supervisor."};
    for (uint32_t t = 0; t < rig.tenantCount(); t++) {
        auto &st = rig.stack(apps::TenantRig::tenantOf(t));
        for (auto *adm : {st.admKv.get(), st.admFs.get(), st.admHttp.get()})
            if (adm) {
                groups.push_back(&adm->stats);
                prefixes.push_back("admission." + adm->stats.name() + ".");
            }
    }

    // Warm every service path with the rig's closed-loop mix; its
    // integrity tallies must stay clean before and after the run.
    apps::TenantRig::OpCounts pre;
    for (uint32_t t = 0; t < rig.tenantCount(); t++)
        for (int i = 0; i < meshMixRounds; i++)
            rig.runMix(apps::TenantRig::tenantOf(t), i, pre);
    for (StatGroup *g : groups)
        g->resetAll();

    Clock::time_point m0 = Clock::now();
    const apps::LoadGenResult &res = gen.run();
    rep.measuredS = secondsSince(m0);

    rep.ops = res.offered;
    rep.simCycles = res.elapsedCycles();
    rep.opUs.push_back(rep.measuredS * 1e6 / double(res.offered));
    rep.simOpP50 = histQuantile(res.latencyAll, 0.5);
    rep.simOpP98 = histQuantile(res.latencyAll, 0.98);
    rep.simOpSamples = res.latencyAll.count();

    Digest dg;
    std::ostringstream doc;
    res.dumpJson(doc);
    dg.add(doc.str());
    std::vector<const StatGroup *> cgroups(groups.begin(), groups.end());
    collectRegistry(cgroups, prefixes, rep, dg);

    apps::TenantRig::OpCounts post;
    for (uint32_t t = 0; t < rig.tenantCount(); t++)
        for (int i = 0; i < meshMixRounds; i++)
            rig.runMix(apps::TenantRig::tenantOf(t), meshMixRounds + i,
                       post);
    rep.failed = res.offered - res.goodput();
    for (const auto *c : {&pre, &post})
        rep.failed += c->failed + c->corrupt + c->unexplained +
                      c->leakedLinkage;
    rep.failed = std::min(rep.failed, rep.ops);
    dg.add(rep.failed);
    rep.digest = dg.value();
    return rep;
}

} // namespace perfbench
