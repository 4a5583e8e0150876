/**
 * @file
 * Unit and property tests for the memory subsystem: physical memory,
 * the frame allocator, page tables, TLB, caches and MemSystem.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/cache.hh"
#include "mem/mem_system.hh"
#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "mem/tlb.hh"
#include "sim/random.hh"

namespace xpc::mem {
namespace {

TEST(PhysMemTest, ReadBackWhatWasWritten)
{
    PhysMem pm(1 << 20);
    uint8_t data[256];
    for (int i = 0; i < 256; i++)
        data[i] = uint8_t(i);
    pm.write(0x1234, data, sizeof(data));
    uint8_t out[256] = {};
    pm.read(0x1234, out, sizeof(out));
    EXPECT_EQ(std::memcmp(data, out, sizeof(data)), 0);
}

TEST(PhysMemTest, CrossPageAccess)
{
    PhysMem pm(1 << 20);
    std::vector<uint8_t> data(3 * pageSize, 0xab);
    pm.write(pageSize - 100, data.data(), data.size());
    std::vector<uint8_t> out(data.size());
    pm.read(pageSize - 100, out.data(), out.size());
    EXPECT_EQ(data, out);
}

TEST(PhysMemTest, Word64Helpers)
{
    PhysMem pm(1 << 20);
    pm.write64(0x100, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(pm.read64(0x100), 0xdeadbeefcafef00dULL);
}

TEST(PhysMemTest, ZeroInitialized)
{
    PhysMem pm(1 << 20);
    EXPECT_EQ(pm.read64(0x8000), 0u);
}

TEST(PhysMemTest, FrameNearTopOfOneGiB)
{
    PhysMem pm(uint64_t(1) << 30);
    PAddr top = (uint64_t(1) << 30) - pageSize + 0x10;
    uint8_t data[32];
    for (int i = 0; i < 32; i++)
        data[i] = uint8_t(0xa0 + i);
    pm.write(top, data, sizeof(data));
    uint8_t out[32] = {};
    pm.read(top, out, sizeof(out));
    EXPECT_EQ(std::memcmp(data, out, sizeof(data)), 0);
    EXPECT_EQ(pm.read64((uint64_t(1) << 30) - 8), 0u);
}

TEST(PhysMemTest, UntouchedLowFrameReadsZeroAfterGrowth)
{
    PhysMem pm(64 << 20);
    pm.write64(40 << 20, 0x1122334455667788ULL); // grows the table
    uint8_t out[pageSize];
    std::memset(out, 0xff, sizeof(out));
    pm.read(3 * pageSize, out, sizeof(out));
    for (uint8_t b : out)
        ASSERT_EQ(b, 0);
    EXPECT_EQ(pm.read64(5 * pageSize + 8), 0u);
    EXPECT_EQ(pm.read64(40 << 20), 0x1122334455667788ULL);
}

TEST(PhysMemTest, Word64AtLastWordOfPage)
{
    PhysMem pm(1 << 20);
    PAddr last = 2 * pageSize - 8;
    pm.write64(last, 0x0102030405060708ULL);
    EXPECT_EQ(pm.read64(last), 0x0102030405060708ULL);
    EXPECT_EQ(pm.read64(2 * pageSize), 0u); // next page untouched
    uint8_t bytes[16];
    pm.read(last, bytes, sizeof(bytes));
    uint64_t lo;
    std::memcpy(&lo, bytes, 8);
    EXPECT_EQ(lo, 0x0102030405060708ULL);
    for (int i = 8; i < 16; i++)
        EXPECT_EQ(bytes[i], 0);
}

TEST(PhysMemTest, ClearAcrossThreePages)
{
    PhysMem pm(1 << 20);
    std::vector<uint8_t> data(4 * pageSize, 0x5a);
    pm.write(0, data.data(), data.size());
    PAddr from = pageSize - 100;
    uint64_t len = 2 * pageSize + 200; // pages 0, 1 and 2
    pm.clear(from, len);
    std::vector<uint8_t> out(data.size());
    pm.read(0, out.data(), out.size());
    for (uint64_t a = 0; a < out.size(); a++) {
        bool cleared = a >= from && a < from + len;
        ASSERT_EQ(out[a], cleared ? 0 : 0x5a) << "at " << a;
    }
    pm.clear(8 * pageSize, 3 * pageSize); // never written: stays zero
    EXPECT_EQ(pm.read64(9 * pageSize), 0u);
}

TEST(PhysMemDeathTest, OutOfRangePanics)
{
    PhysMem pm(1 << 20);
    uint8_t b;
    EXPECT_DEATH(pm.read((1 << 20) - 1, &b, 2), "outside DRAM");
}

TEST(PhysAllocatorTest, AllocateAndFreeCoalesces)
{
    PhysAllocator alloc(0x10000, 64 * pageSize);
    uint64_t total = alloc.freeBytes();
    PAddr a = alloc.allocFrames(4);
    PAddr b = alloc.allocFrames(4);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    EXPECT_NE(a, b);
    alloc.freeFrames(a, 4);
    alloc.freeFrames(b, 4);
    EXPECT_EQ(alloc.freeBytes(), total);
    EXPECT_EQ(alloc.largestExtent(), total);
}

TEST(PhysAllocatorTest, ContiguousAllocationRespectsFragmentation)
{
    PhysAllocator alloc(0x10000, 8 * pageSize);
    PAddr a = alloc.allocFrames(3);
    PAddr b = alloc.allocFrames(3);
    (void)b;
    alloc.freeFrames(a, 3);
    // 3 free at the front, 2 free at the back: a 4-frame contiguous
    // request cannot be satisfied.
    EXPECT_EQ(alloc.allocFrames(4), 0u);
    EXPECT_NE(alloc.allocFrames(3), 0u);
}

TEST(PhysAllocatorDeathTest, DoubleFreePanics)
{
    PhysAllocator alloc(0x10000, 8 * pageSize);
    PAddr a = alloc.allocFrames(1);
    alloc.freeFrames(a, 1);
    EXPECT_DEATH(alloc.freeFrames(a, 1), "double free");
}

class PageTableTest : public ::testing::Test
{
  protected:
    PageTableTest()
        : pm(64 << 20), alloc(0x10000, (64 << 20) - 0x10000),
          pt(pm, alloc)
    {}

    PhysMem pm;
    PhysAllocator alloc;
    PageTable pt;
};

TEST_F(PageTableTest, MapThenWalk)
{
    pt.map(0x4000, 0x20000, permsRW);
    WalkResult r = pt.walk(0x4abc);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.paddr, 0x20abcu);
    EXPECT_TRUE(r.perms.read);
    EXPECT_TRUE(r.perms.write);
    EXPECT_FALSE(r.perms.exec);
    EXPECT_EQ(r.levels, 3);
}

TEST_F(PageTableTest, UnmappedWalkFails)
{
    EXPECT_FALSE(pt.walk(0x4000).valid);
}

TEST_F(PageTableTest, UnmapRemovesTranslation)
{
    pt.map(0x4000, 0x20000, permsRW);
    EXPECT_TRUE(pt.unmap(0x4000));
    EXPECT_FALSE(pt.walk(0x4000).valid);
    EXPECT_FALSE(pt.unmap(0x4000));
}

TEST_F(PageTableTest, RemapInPlace)
{
    pt.map(0x4000, 0x20000, permsRW);
    pt.map(0x4000, 0x30000, permsRO);
    WalkResult r = pt.walk(0x4000);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.paddr, 0x30000u);
    EXPECT_FALSE(r.perms.write);
    EXPECT_EQ(pt.mappedPages(), 1u);
}

TEST_F(PageTableTest, SparseAddressesUseDistinctSubtrees)
{
    pt.map(0x4000, 0x20000, permsRW);
    pt.map(uint64_t(5) << 30, 0x21000, permsRW);
    pt.map((uint64_t(1) << 38) | 0x7000, 0x22000, permsRW);
    EXPECT_EQ(pt.walk(0x4000).paddr, 0x20000u);
    EXPECT_EQ(pt.walk(uint64_t(5) << 30).paddr, 0x21000u);
    EXPECT_EQ(pt.walk((uint64_t(1) << 38) | 0x7000).paddr, 0x22000u);
}

TEST_F(PageTableTest, AnyMappingIn)
{
    pt.map(0x4000, 0x20000, permsRW);
    EXPECT_TRUE(pt.anyMappingIn(0x3fff, 2));
    EXPECT_TRUE(pt.anyMappingIn(0x4800, 8));
    EXPECT_FALSE(pt.anyMappingIn(0x6000, 0x1000));
}

TEST_F(PageTableTest, ZapRootInvalidatesEverything)
{
    pt.map(0x4000, 0x20000, permsRW);
    pt.zapRoot();
    EXPECT_FALSE(pt.walk(0x4000).valid);
    EXPECT_EQ(pt.mappedPages(), 0u);
}

TEST_F(PageTableTest, BeyondSv39Invalid)
{
    EXPECT_FALSE(pt.walk(uint64_t(1) << 39).valid);
}

/** Property: walk(va) equals the map we constructed, for many pages. */
TEST_F(PageTableTest, PropertyRandomMappingsResolve)
{
    Rng rng(123);
    std::map<VAddr, PAddr> truth;
    for (int i = 0; i < 300; i++) {
        VAddr va = pageAlignDown(rng.next() & ((uint64_t(1) << 39) - 1));
        PAddr pa = pageAlignDown(rng.nextBounded(32 << 20));
        pt.map(va, pa, permsRW);
        truth[va] = pa;
    }
    for (const auto &[va, pa] : truth) {
        WalkResult r = pt.walk(va);
        ASSERT_TRUE(r.valid);
        EXPECT_EQ(r.paddr, pa);
    }
}

TEST(TlbTest, HitAfterInsert)
{
    Tlb tlb(64, 4, true);
    tlb.insert(1, 0x4000, 0x20000, permsRW);
    const TlbEntry *e = tlb.lookup(1, 0x4abc);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ppn, 0x20000u >> pageShift);
    EXPECT_EQ(tlb.hits.value(), 1u);
}

TEST(TlbTest, TaggedSeparatesAsids)
{
    Tlb tlb(64, 4, true);
    tlb.insert(1, 0x4000, 0x20000, permsRW);
    EXPECT_EQ(tlb.lookup(2, 0x4000), nullptr);
    EXPECT_NE(tlb.lookup(1, 0x4000), nullptr);
}

TEST(TlbTest, UntaggedStillMatchesAsidFunctionally)
{
    // "Untagged" is a timing property (must flush on space switch);
    // the functional model never lets one space hit another's entry.
    Tlb tlb(64, 4, false);
    tlb.insert(1, 0x4000, 0x20000, permsRW);
    EXPECT_EQ(tlb.lookup(2, 0x4000), nullptr);
    EXPECT_NE(tlb.lookup(1, 0x4000), nullptr);
}

TEST(TlbTest, FlushAllDropsEntries)
{
    Tlb tlb(64, 4, false);
    tlb.insert(1, 0x4000, 0x20000, permsRW);
    tlb.flushAll();
    EXPECT_EQ(tlb.lookup(1, 0x4000), nullptr);
}

TEST(TlbTest, FlushAsidIsSelective)
{
    Tlb tlb(64, 4, true);
    tlb.insert(1, 0x4000, 0x20000, permsRW);
    tlb.insert(2, 0x5000, 0x21000, permsRW);
    tlb.flushAsid(1);
    EXPECT_EQ(tlb.lookup(1, 0x4000), nullptr);
    EXPECT_NE(tlb.lookup(2, 0x5000), nullptr);
}

TEST(TlbTest, LruEvictionWithinSet)
{
    // 4 entries, 2 ways -> 2 sets. VPNs with the same parity share a
    // set; the least recently used way is evicted.
    Tlb tlb(4, 2, true);
    tlb.insert(1, 0x0000, 0x10000, permsRW); // set 0
    tlb.insert(1, 0x2000, 0x20000, permsRW); // set 0
    tlb.lookup(1, 0x0000);                   // touch first
    tlb.insert(1, 0x4000, 0x30000, permsRW); // evicts 0x2000
    EXPECT_NE(tlb.lookup(1, 0x0000), nullptr);
    EXPECT_EQ(tlb.lookup(1, 0x2000), nullptr);
}

/**
 * The valid-bit TLB that the epoch TLB replaced (flushAll cleared
 * every entry): the exactness reference for Tlb.
 */
class RefTlb
{
  public:
    RefTlb(uint32_t entries, uint32_t assoc)
        : numSets(entries / assoc), assoc(assoc), entries(entries)
    {
    }

    const TlbEntry *
    lookup(Asid asid, VAddr vaddr)
    {
        uint64_t vpn = vaddr >> pageShift;
        Entry *ways = set(vpn);
        for (uint32_t i = 0; i < assoc; i++) {
            Entry &e = ways[i];
            if (e.valid && e.e.vpn == vpn && e.e.asid == asid) {
                e.e.lruStamp = ++clock;
                hits++;
                return &e.e;
            }
        }
        misses++;
        return nullptr;
    }

    void
    insert(Asid asid, VAddr vaddr, PAddr paddr, Perms perms)
    {
        uint64_t vpn = vaddr >> pageShift;
        Entry *ways = set(vpn);
        for (uint32_t i = 0; i < assoc; i++) {
            Entry &e = ways[i];
            if (e.valid && e.e.vpn == vpn && e.e.asid == asid) {
                e.e.ppn = paddr >> pageShift;
                e.e.perms = perms;
                e.e.lruStamp = ++clock;
                return;
            }
        }
        Entry *victim = &ways[0];
        for (uint32_t i = 0; i < assoc; i++) {
            Entry &e = ways[i];
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.e.lruStamp < victim->e.lruStamp)
                victim = &e;
        }
        victim->valid = true;
        victim->e.asid = asid;
        victim->e.vpn = vpn;
        victim->e.ppn = paddr >> pageShift;
        victim->e.perms = perms;
        victim->e.lruStamp = ++clock;
    }

    void
    flushAll()
    {
        for (auto &e : entries)
            e.valid = false;
        flushes++;
    }

    void
    flushAsid(Asid asid)
    {
        for (auto &e : entries) {
            if (e.valid && e.e.asid == asid)
                e.valid = false;
        }
        flushes++;
    }

    uint64_t hits = 0, misses = 0, flushes = 0;

  private:
    struct Entry
    {
        bool valid = false;
        TlbEntry e;
    };

    Entry *
    set(uint64_t vpn)
    {
        return &entries[(vpn & (numSets - 1)) * assoc];
    }

    uint32_t numSets;
    uint32_t assoc;
    uint64_t clock = 0;
    std::vector<Entry> entries;
};

/**
 * Replay one seeded random stream of lookups, refills and flushes
 * through Tlb and RefTlb and require the same hit or miss and the
 * same translation on every lookup, and the same counters at the end.
 */
void
replayTlbAgainstReference(uint32_t entries, uint32_t assoc, bool tagged,
                          uint64_t seed)
{
    Tlb tlb(entries, assoc, tagged);
    RefTlb ref(entries, assoc);
    Rng rng(seed);
    // Four address spaces over a VPN span of twice the TLB's reach,
    // so sets conflict, refills replace live and flushed ways, and
    // flushAsid leaves the other spaces' entries live.
    uint64_t span = 2 * uint64_t(entries);
    uint64_t ppn_salt = 0;
    uint64_t hits = 0;
    for (int i = 0; i < 20000; i++) {
        Asid asid = Asid(1 + rng.nextBounded(4));
        VAddr va = rng.nextBounded(span) << pageShift |
                   rng.nextBounded(pageSize);
        uint64_t op = rng.nextBounded(100);
        if (op < 2) {
            tlb.flushAll();
            ref.flushAll();
        } else if (op < 4) {
            tlb.flushAsid(asid);
            ref.flushAsid(asid);
        } else if (op < 10) {
            // A refill that may replace a live translation in place.
            PAddr pa = PAddr(++ppn_salt) << pageShift;
            Perms perms = rng.nextBounded(2) ? permsRW : permsRO;
            tlb.insert(asid, va, pa, perms);
            ref.insert(asid, va, pa, perms);
        } else {
            const TlbEntry *got = tlb.lookup(asid, va);
            const TlbEntry *want = ref.lookup(asid, va);
            ASSERT_EQ(got != nullptr, want != nullptr) << "op " << i;
            if (got) {
                hits++;
                ASSERT_EQ(got->ppn, want->ppn) << "op " << i;
                ASSERT_EQ(got->perms, want->perms) << "op " << i;
                continue;
            }
            // Walk and refill on a miss, as MemSystem does.
            PAddr pa = PAddr(++ppn_salt) << pageShift;
            tlb.insert(asid, va, pa, permsRW);
            ref.insert(asid, va, pa, permsRW);
        }
    }
    EXPECT_EQ(tlb.hits.value(), ref.hits);
    EXPECT_EQ(tlb.misses.value(), ref.misses);
    EXPECT_EQ(tlb.flushes.value(), ref.flushes);
    // The stream must have both hit and missed.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(ref.misses, 0u);
}

// Geometries of hw::rocketU500 (128 entries, 4-way, untagged),
// hw::lowRiscKc705 (256 entries, 4-way, tagged) and a tiny 2-way TLB.
TEST(TlbPropertyTest, RocketUntaggedMatchesValidBitReference)
{
    for (uint64_t seed : {1, 2, 3})
        replayTlbAgainstReference(128, 4, false, seed);
}

TEST(TlbPropertyTest, Kc705TaggedMatchesValidBitReference)
{
    for (uint64_t seed : {4, 5, 6})
        replayTlbAgainstReference(256, 4, true, seed);
}

TEST(TlbPropertyTest, TinyTwoWayMatchesValidBitReference)
{
    for (uint64_t seed : {7, 8, 9})
        replayTlbAgainstReference(4, 2, false, seed);
}

TEST(CacheTest, MissThenHit)
{
    Cache l1({1024, 64, 2, Cycles(2)}, nullptr, Cycles(50));
    Cycles cold = l1.access(0x1000, 8, false);
    Cycles warm = l1.access(0x1000, 8, false);
    EXPECT_GT(cold, warm);
    EXPECT_EQ(warm, Cycles(2));
    EXPECT_EQ(l1.misses.value(), 1u);
    EXPECT_EQ(l1.hits.value(), 1u);
}

TEST(CacheTest, DirtyEvictionWritesBack)
{
    // Direct-mapped 2-line cache: lines 0x0 and 0x40 conflict with
    // 0x80 and 0xc0 respectively.
    Cache l1({128, 64, 1, Cycles(2)}, nullptr, Cycles(50));
    l1.access(0x0, 8, true);   // dirty line
    l1.access(0x80, 8, false); // evicts dirty line 0x0
    EXPECT_EQ(l1.writebacks.value(), 1u);
}

TEST(CacheTest, HierarchyChargesThroughLevels)
{
    Cache l2({4096, 64, 4, Cycles(14)}, nullptr, Cycles(60));
    Cache l1({1024, 64, 2, Cycles(2)}, &l2, Cycles(60));
    Cycles cold = l1.access(0x2000, 8, false);
    // cold: L1 miss -> L2 miss -> DRAM: 2 + 14 + 60
    EXPECT_EQ(cold, Cycles(76));
    l1.invalidateAll();
    Cycles l2hit = l1.access(0x2000, 8, false);
    EXPECT_EQ(l2hit, Cycles(16));
}

TEST(CacheTest, MultiLineAccessTouchesEachLine)
{
    Cache l1({4096, 64, 2, Cycles(2)}, nullptr, Cycles(50));
    l1.access(0x1000, 256, false);
    EXPECT_EQ(l1.misses.value(), 4u);
}

/**
 * The division-indexed cache that Cache replaced, one line at a time:
 * the exactness reference for the shift-indexed, inlined hit path.
 */
class RefCache
{
  public:
    RefCache(const CacheParams &p, RefCache *n, Cycles mem_latency)
        : params(p), next(n), memLatency(mem_latency),
          numSets(uint32_t(p.sizeBytes / p.lineBytes / p.assoc)),
          lines(p.sizeBytes / p.lineBytes)
    {
    }

    Cycles
    access(PAddr paddr, uint64_t len, bool is_write)
    {
        if (len == 0)
            return Cycles(0);
        uint64_t first = paddr / params.lineBytes;
        uint64_t last = (paddr + len - 1) / params.lineBytes;
        Cycles total(0);
        for (uint64_t line = first; line <= last; line++)
            total += accessLine(line * params.lineBytes, is_write);
        return total;
    }

    uint64_t hits = 0, misses = 0, writebacks = 0;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        uint64_t tag = 0;
        uint64_t lruStamp = 0;
    };

    Cycles
    accessLine(uint64_t line_addr, bool is_write)
    {
        uint64_t line_num = line_addr / params.lineBytes;
        uint64_t set_idx = line_num & (numSets - 1);
        uint64_t tag = line_num / numSets;
        Line *ways = &lines[set_idx * params.assoc];
        for (uint32_t i = 0; i < params.assoc; i++) {
            Line &l = ways[i];
            if (l.valid && l.tag == tag) {
                hits++;
                l.lruStamp = ++clock;
                l.dirty |= is_write;
                return params.hitLatency;
            }
        }
        misses++;
        Line *victim = &ways[0];
        for (uint32_t i = 0; i < params.assoc; i++) {
            Line &l = ways[i];
            if (!l.valid) {
                victim = &l;
                break;
            }
            if (l.lruStamp < victim->lruStamp)
                victim = &l;
        }
        Cycles cost = params.hitLatency;
        if (victim->valid && victim->dirty) {
            writebacks++;
            uint64_t victim_addr =
                (victim->tag * numSets + set_idx) * params.lineBytes;
            cost += next ? next->access(victim_addr, params.lineBytes, true)
                         : memLatency;
        }
        cost += next ? next->access(line_addr, params.lineBytes, false)
                     : memLatency;
        *victim = Line{true, is_write, tag, ++clock};
        return cost;
    }

    CacheParams params;
    RefCache *next;
    Cycles memLatency;
    uint32_t numSets;
    uint64_t clock = 0;
    std::vector<Line> lines;
};

/**
 * Replay one seeded random access stream through Cache and RefCache
 * L1 -> L2 chains and require identical cycles and counters after
 * every access.
 */
void
replayAgainstReference(const CacheParams &l1p, const CacheParams &l2p,
                       Cycles dram, uint64_t seed)
{
    Cache l2(l2p, nullptr, dram);
    Cache l1(l1p, &l2, dram);
    RefCache r2(l2p, nullptr, dram);
    RefCache r1(l1p, &r2, dram);

    Rng rng(seed);
    // A hot 64 KiB window (L1-sized reuse) inside a 4 MiB span that
    // overflows both L2 geometries, so hits, misses and dirty
    // evictions all happen at both levels.
    PAddr hot = 0x100000;
    for (int i = 0; i < 6000; i++) {
        if (rng.nextBounded(64) == 0)
            hot = rng.nextBounded(4 << 20);
        PAddr base = rng.nextBounded(4) == 0
                         ? rng.nextBounded(4 << 20)
                         : hot + rng.nextBounded(64 << 10);
        uint64_t len = 1 + rng.nextBounded(4096);
        bool is_write = rng.nextBounded(3) == 0;
        Cycles got = l1.access(base, len, is_write);
        Cycles want = r1.access(base, len, is_write);
        ASSERT_EQ(got, want) << "access " << i;
        ASSERT_EQ(l1.hits.value(), r1.hits) << "access " << i;
        ASSERT_EQ(l1.misses.value(), r1.misses) << "access " << i;
        ASSERT_EQ(l1.writebacks.value(), r1.writebacks) << "access " << i;
        ASSERT_EQ(l2.hits.value(), r2.hits) << "access " << i;
        ASSERT_EQ(l2.misses.value(), r2.misses) << "access " << i;
        ASSERT_EQ(l2.writebacks.value(), r2.writebacks) << "access " << i;
    }
    // The stream must have exercised every path it claims to check.
    EXPECT_GT(l1.hits.value(), 0u);
    EXPECT_GT(l1.writebacks.value(), 0u);
    EXPECT_GT(l2.hits.value(), 0u);
    EXPECT_GT(l2.writebacks.value(), 0u);
}

// Geometries of hw::rocketU500 (L1D 32 KiB 4-way, L2 1 MiB 16-way) and
// hw::lowRiscKc705 (same L1D, L2 512 KiB 8-way).
const CacheParams rocketL1d{32 * 1024, 64, 4, Cycles(2)};
const CacheParams rocketL2{1024 * 1024, 64, 16, Cycles(14)};
const CacheParams kc705L2{512 * 1024, 64, 8, Cycles(16)};

TEST(CachePropertyTest, RocketChainMatchesDivisionReference)
{
    for (uint64_t seed : {1, 2, 3})
        replayAgainstReference(rocketL1d, rocketL2, Cycles(60), seed);
}

TEST(CachePropertyTest, Kc705ChainMatchesDivisionReference)
{
    for (uint64_t seed : {4, 5, 6})
        replayAgainstReference(rocketL1d, kc705L2, Cycles(60), seed);
}

class MemSystemTest : public ::testing::Test
{
  protected:
    MemSystemTest()
        : pm(64 << 20), alloc(0x10000, (64 << 20) - 0x10000)
    {
        MemParams p;
        p.l1d = {32 * 1024, 64, 4, Cycles(2)};
        p.l2 = {1024 * 1024, 64, 16, Cycles(14)};
        p.dramLatency = Cycles(60);
        p.tlbEntries = 64;
        p.tlbAssoc = 4;
        p.taggedTlb = false;
        p.walkOverhead = Cycles(4);
        p.perWordIssue = Cycles(1);
        ms = std::make_unique<MemSystem>(pm, p, 2);
        pt = std::make_unique<PageTable>(pm, alloc);
        pt->map(0x4000, alloc.allocFrames(1), permsRW);
    }

    TransContext
    ctx()
    {
        TransContext c;
        c.pt = pt.get();
        c.asid = 1;
        c.user = true;
        return c;
    }

    PhysMem pm;
    PhysAllocator alloc;
    std::unique_ptr<MemSystem> ms;
    std::unique_ptr<PageTable> pt;
};

TEST_F(MemSystemTest, WriteThenReadRoundTrips)
{
    uint64_t v = 0x1122334455667788ULL;
    auto w = ms->write(0, ctx(), 0x4010, &v, 8);
    ASSERT_TRUE(w.ok);
    uint64_t out = 0;
    auto r = ms->read(0, ctx(), 0x4010, &out, 8);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(out, v);
}

TEST_F(MemSystemTest, UnmappedAccessPageFaults)
{
    uint8_t b = 0;
    auto r = ms->read(0, ctx(), 0x9000, &b, 1);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, FaultKind::PageFault);
    EXPECT_EQ(r.faultAddr, 0x9000u);
}

TEST_F(MemSystemTest, WriteToReadOnlyPageProtectionFaults)
{
    pt->map(0x5000, alloc.allocFrames(1), permsRO);
    uint8_t b = 1;
    auto r = ms->write(0, ctx(), 0x5000, &b, 1);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, FaultKind::ProtectionFault);
}

TEST_F(MemSystemTest, TlbWarmsUp)
{
    uint8_t b;
    ms->read(0, ctx(), 0x4000, &b, 1);
    uint64_t misses = ms->tlb(0).misses.value();
    ms->read(0, ctx(), 0x4001, &b, 1);
    EXPECT_EQ(ms->tlb(0).misses.value(), misses);
}

TEST_F(MemSystemTest, SegWindowHasPriorityOverPageTable)
{
    PAddr frames = alloc.allocFrames(2);
    SegWindow seg{true, 0x4000, frames, 2 * pageSize, true, true};
    TransContext c = ctx();
    c.seg = &seg;
    uint64_t v = 0xabcd;
    ASSERT_TRUE(ms->write(0, c, 0x4000, &v, 8).ok);
    // The write landed in the segment frames, not the mapped page.
    EXPECT_EQ(pm.read64(frames), 0xabcdu);
    EXPECT_NE(pt->walk(0x4000).paddr, frames);
}

TEST_F(MemSystemTest, SegWindowPermissionEnforced)
{
    PAddr frames = alloc.allocFrames(1);
    SegWindow seg{true, uint64_t(0x30) << 32, frames, pageSize, true,
                  false};
    TransContext c = ctx();
    c.seg = &seg;
    uint8_t b = 1;
    auto r = ms->write(0, c, uint64_t(0x30) << 32, &b, 1);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, FaultKind::SegPermissionFault);
}

TEST_F(MemSystemTest, CopyMovesBytesBetweenContexts)
{
    pt->map(0x6000, alloc.allocFrames(1), permsRW);
    std::vector<uint8_t> data(600);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = uint8_t(i * 7);
    ASSERT_TRUE(ms->write(0, ctx(), 0x4000, data.data(),
                          data.size()).ok);
    auto r = ms->copy(0, ctx(), 0x4000, ctx(), 0x6000, data.size());
    ASSERT_TRUE(r.ok);
    std::vector<uint8_t> out(data.size());
    ASSERT_TRUE(ms->read(0, ctx(), 0x6000, out.data(), out.size()).ok);
    EXPECT_EQ(data, out);
}

TEST_F(MemSystemTest, LargerCopiesCostMore)
{
    pt->map(0x6000, alloc.allocFrames(1), permsRW);
    auto small = ms->copy(0, ctx(), 0x4000, ctx(), 0x6000, 64);
    auto large = ms->copy(0, ctx(), 0x4000, ctx(), 0x6000, 4096);
    EXPECT_GT(large.cycles.value(), small.cycles.value() * 10);
}

/** Property: timing state never affects functional reads. */
TEST_F(MemSystemTest, PropertyFunctionalCorrectnessUnderRandomOps)
{
    Rng rng(77);
    std::vector<uint8_t> shadow(pageSize, 0);
    for (int i = 0; i < 2000; i++) {
        uint64_t off = rng.nextBounded(pageSize - 16);
        uint64_t len = 1 + rng.nextBounded(16);
        if (rng.nextBounded(2) == 0) {
            std::vector<uint8_t> data(len);
            for (auto &d : data)
                d = uint8_t(rng.next());
            ASSERT_TRUE(ms->write(0, ctx(), 0x4000 + off, data.data(),
                                  len).ok);
            std::memcpy(shadow.data() + off, data.data(), len);
        } else {
            std::vector<uint8_t> out(len);
            ASSERT_TRUE(ms->read(0, ctx(), 0x4000 + off, out.data(),
                                 len).ok);
            EXPECT_EQ(std::memcmp(out.data(), shadow.data() + off, len),
                      0);
        }
    }
}

} // namespace
} // namespace xpc::mem
