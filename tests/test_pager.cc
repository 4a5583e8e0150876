/**
 * @file
 * Tests for MiniDb's storage internals: the FS-backed paged file
 * (cache hits, eviction write-back, pre-image hook ordering) and the
 * xv6fs buffer cache's pinning discipline. Both caches index their
 * entries by number; property tests replay seeded op streams through
 * them and through in-test copies of the list-scan caches they
 * replaced, and require the same bytes, counters and simulated I/O.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <list>
#include <tuple>

#include "apps/minidb/paged_file.hh"
#include "core/recording_transport.hh"
#include "core/system.hh"
#include "services/block_device.hh"
#include "services/fs_server.hh"
#include "services/fs/xv6fs.hh"
#include "sim/random.hh"

namespace xpc::apps {
namespace {

/** One wired system: blockdev + FS + a pager client. */
struct PagerRig
{
    PagerRig()
    {
        core::SystemOptions opts;
        opts.flavor = core::SystemFlavor::Sel4Xpc;
        sys = std::make_unique<core::System>(opts);
        kernel::Thread &dev_t = sys->spawn("dev");
        kernel::Thread &fs_t = sys->spawn("fs");
        client = &sys->spawn("client");
        dev = std::make_unique<services::BlockDeviceServer>(
            sys->transport(), dev_t, 2048);
        sys->transport().connect(fs_t, dev->id());
        fsrv = std::make_unique<services::FsServer>(
            sys->transport(), fs_t, dev->id(), 2048);
        sys->transport().connect(*client, fsrv->id());
    }

    std::unique_ptr<core::System> sys;
    std::unique_ptr<services::BlockDeviceServer> dev;
    std::unique_ptr<services::FsServer> fsrv;
    kernel::Thread *client = nullptr;
};

class PagerTest : public ::testing::Test, protected PagerRig
{};

TEST_F(PagerTest, AppendGetRoundTrips)
{
    PagedFile pf(sys->transport(), sys->core(0), *client,
                 fsrv->id(), "/p.db", 8);
    uint32_t p = pf.appendPage();
    DbPage &page = pf.get(p);
    std::memset(page.data.data(), 0x5d, 64);
    pf.markDirty(p);
    pf.flushDirty();

    // A fresh pager over the same file sees the bytes.
    PagedFile pf2(sys->transport(), sys->core(0), *client,
                  fsrv->id(), "/p.db", 8);
    pf2.adoptPages(1);
    DbPage &again = pf2.get(p);
    EXPECT_EQ(again.data[0], 0x5d);
    EXPECT_EQ(again.data[63], 0x5d);
}

TEST_F(PagerTest, EvictionWritesDirtyVictimsBack)
{
    PagedFile pf(sys->transport(), sys->core(0), *client,
                 fsrv->id(), "/evict.db", 4);
    // Dirty 8 pages through a 4-page cache: the pager must write
    // victims back on eviction, not lose them.
    for (uint32_t i = 0; i < 8; i++) {
        uint32_t p = pf.appendPage();
        DbPage &page = pf.get(p);
        page.data[0] = uint8_t(0xA0 + i);
        pf.markDirty(p);
    }
    EXPECT_GT(pf.pageWrites.value(), 0u);
    pf.flushDirty();
    for (uint32_t i = 0; i < 8; i++) {
        DbPage &page = pf.get(i);
        EXPECT_EQ(page.data[0], uint8_t(0xA0 + i)) << "page " << i;
    }
}

TEST_F(PagerTest, PreImageHookSeesDataBeforeTheWrite)
{
    PagedFile pf(sys->transport(), sys->core(0), *client,
                 fsrv->id(), "/hook.db", 8);
    uint32_t p = pf.appendPage();
    {
        DbPage &page = pf.get(p);
        page.data[0] = 0x11;
        pf.markDirty(p);
    }
    pf.flushDirty();

    uint8_t captured = 0;
    pf.preImageHook = [&](uint32_t page_no, const DbPage &pre) {
        EXPECT_EQ(page_no, p);
        captured = pre.data[0];
    };
    // Discipline: markDirty BEFORE modifying.
    DbPage &page = pf.get(p);
    pf.markDirty(p);
    page.data[0] = 0x22;
    EXPECT_EQ(captured, 0x11); // the pre-image, not the new value
}

TEST_F(PagerTest, SecondDirtyInSameEpochSkipsTheHook)
{
    PagedFile pf(sys->transport(), sys->core(0), *client,
                 fsrv->id(), "/hook2.db", 8);
    uint32_t p = pf.appendPage();
    int hook_calls = 0;
    pf.preImageHook = [&](uint32_t, const DbPage &) { hook_calls++; };
    pf.get(p);
    pf.markDirty(p);
    pf.markDirty(p); // absorbed
    EXPECT_EQ(hook_calls, 1);
    EXPECT_EQ(pf.dirtyPages().size(), 1u);
}

/**
 * The list-scan pager PagedFile replaced, kept as the reference for
 * the property test below: a std::list of pages searched front to
 * back on every lookup, the victim the minimum lru stamp (among clean
 * pages first under preferCleanEviction). Same RPCs in the same
 * order, so a twin system running it must stay cycle-identical.
 */
class ListScanPager
{
  public:
    ListScanPager(PagerRig &rig, const std::string &path,
                  uint32_t cache_pages)
        : rig(rig), capacity(cache_pages)
    {
        fd = services::FsServer::clientOpen(rig.sys->transport(),
                                            rig.sys->core(0),
                                            *rig.client, rig.fsrv->id(),
                                            path, true);
    }

    DbPage &
    get(uint32_t page_no)
    {
        if (DbPage *hit = find(page_no)) {
            cacheHits++;
            return *hit;
        }
        cacheMisses++;
        DbPage &p = admit(page_no);
        pageReads++;
        int64_t r = services::FsServer::clientRead(
            rig.sys->transport(), rig.sys->core(0), *rig.client,
            rig.fsrv->id(), fd, uint64_t(page_no) * dbPageBytes,
            p.data.data(), dbPageBytes);
        if (r < int64_t(dbPageBytes)) {
            std::memset(p.data.data() + (r > 0 ? r : 0), 0,
                        dbPageBytes - uint64_t(r > 0 ? r : 0));
        }
        return p;
    }

    void
    markDirty(uint32_t page_no)
    {
        DbPage *p = find(page_no);
        ASSERT_NE(p, nullptr);
        if (!p->dirty) {
            if (preImageHook)
                preImageHook(page_no, *p);
            dirtyList.push_back(page_no);
        }
        p->dirty = true;
    }

    void
    flushDirty()
    {
        for (uint32_t page_no : dirtyList) {
            if (DbPage *p = find(page_no)) {
                if (p->dirty)
                    writeThrough(*p);
            }
        }
        dirtyList.clear();
    }

    uint32_t
    appendPage()
    {
        uint32_t page_no = numPages++;
        admit(page_no).data.fill(0);
        return page_no;
    }

    bool preferCleanEviction = false;
    std::function<void(uint32_t, const DbPage &)> preImageHook;
    std::vector<uint32_t> dirtyList;
    uint64_t cacheHits = 0, cacheMisses = 0;
    uint64_t pageReads = 0, pageWrites = 0;
    uint32_t numPages = 0;

  private:
    PagerRig &rig;
    uint32_t capacity;
    int64_t fd = -1;
    uint64_t clock = 0;
    std::list<DbPage> pages;

    DbPage *
    find(uint32_t page_no)
    {
        for (auto &p : pages) {
            if (p.pageNo == page_no) {
                p.lru = ++clock;
                return &p;
            }
        }
        return nullptr;
    }

    DbPage &
    admit(uint32_t page_no)
    {
        if (pages.size() >= capacity)
            evictOne();
        DbPage &p = pages.emplace_back();
        p.pageNo = page_no;
        p.lru = ++clock;
        return p;
    }

    void
    writeThrough(DbPage &page)
    {
        pageWrites++;
        services::FsServer::clientWrite(
            rig.sys->transport(), rig.sys->core(0), *rig.client,
            rig.fsrv->id(), fd, uint64_t(page.pageNo) * dbPageBytes,
            page.data.data(), dbPageBytes);
        page.dirty = false;
    }

    void
    evictOne()
    {
        auto victim = pages.begin();
        if (preferCleanEviction) {
            auto clean = pages.end();
            for (auto it = pages.begin(); it != pages.end(); ++it) {
                if (!it->dirty &&
                    (clean == pages.end() || it->lru < clean->lru))
                    clean = it;
            }
            if (clean != pages.end()) {
                pages.erase(clean);
                return;
            }
        }
        for (auto it = pages.begin(); it != pages.end(); ++it) {
            if (it->lru < victim->lru)
                victim = it;
        }
        if (victim->dirty)
            writeThrough(*victim);
        pages.erase(victim);
    }
};

/** Replay one seeded get/markDirty/flushDirty/appendPage stream
 *  through PagedFile and the list-scan reference, each on a fresh
 *  rig of its own; after every op the page bytes, the four counters, the
 *  dirty list, the pre-image hook calls and the simulated clock must
 *  agree. */
void
replayPagerStream(uint32_t cap, bool prefer_clean, uint64_t seed)
{
    SCOPED_TRACE("capacity " + std::to_string(cap) + " preferClean " +
                 std::to_string(prefer_clean));
    PagerRig rig, twin;
    ASSERT_EQ(rig.sys->core(0).now(), twin.sys->core(0).now());
    PagedFile pf(rig.sys->transport(), rig.sys->core(0), *rig.client,
                 rig.fsrv->id(), "/prop.db", cap);
    ListScanPager ref(twin, "/prop.db", cap);
    pf.preferCleanEviction = ref.preferCleanEviction = prefer_clean;
    std::vector<std::pair<uint32_t, uint8_t>> hooked, ref_hooked;
    pf.preImageHook = [&](uint32_t no, const DbPage &pre) {
        hooked.emplace_back(no, pre.data[no % dbPageBytes]);
    };
    ref.preImageHook = [&](uint32_t no, const DbPage &pre) {
        ref_hooked.emplace_back(no, pre.data[no % dbPageBytes]);
    };

    Rng rng(seed);
    for (int op = 0; op < 600; op++) {
        SCOPED_TRACE("op " + std::to_string(op));
        uint64_t action = rng.nextBounded(20);
        if (pf.pageCount() == 0 || (action < 2 && pf.pageCount() < 24)) {
            uint32_t a = pf.appendPage();
            ASSERT_EQ(a, ref.appendPage());
            ASSERT_EQ(std::memcmp(pf.get(a).data.data(),
                                  ref.get(a).data.data(), dbPageBytes),
                      0);
        } else if (action < 3) {
            pf.flushDirty();
            ref.flushDirty();
        } else {
            uint32_t no = uint32_t(rng.nextBounded(pf.pageCount()));
            DbPage &page = pf.get(no);
            DbPage &ref_page = ref.get(no);
            ASSERT_EQ(std::memcmp(page.data.data(),
                                  ref_page.data.data(), dbPageBytes),
                      0);
            if (action < 10) {
                // Write discipline: markDirty before modifying.
                pf.markDirty(no);
                ref.markDirty(no);
                uint32_t at = uint32_t(rng.nextBounded(dbPageBytes));
                uint8_t v = uint8_t(rng.next());
                page.data[at] = ref_page.data[at] = v;
            }
        }
        ASSERT_EQ(pf.cacheHits.value(), ref.cacheHits);
        ASSERT_EQ(pf.cacheMisses.value(), ref.cacheMisses);
        ASSERT_EQ(pf.pageReads.value(), ref.pageReads);
        ASSERT_EQ(pf.pageWrites.value(), ref.pageWrites);
        ASSERT_EQ(pf.dirtyPages(), ref.dirtyList);
        ASSERT_EQ(hooked, ref_hooked);
        ASSERT_EQ(rig.sys->core(0).now(), twin.sys->core(0).now());
    }
    // The stream must have run the cache through evictions.
    EXPECT_GT(pf.cacheMisses.value(), pf.pageCount());
}

TEST(PagerProperty, MatchesListScanPager)
{
    for (uint32_t cap = 1; cap <= 8; cap++) {
        for (bool prefer_clean : {false, true}) {
            replayPagerStream(cap, prefer_clean,
                              0x9a6e0000 + cap * 2 + prefer_clean);
            if (HasFatalFailure())
                return;
        }
    }
}

// --------------------------------------------------------------------
// xv6fs buffer cache pinning.
// --------------------------------------------------------------------

class CountingDisk : public services::fs::BlockIo
{
  public:
    explicit CountingDisk(uint32_t n)
        : blocks(n, std::vector<uint8_t>(services::fs::fsBlockBytes,
                                         0))
    {}

    void
    read(uint32_t b, void *dst) override
    {
        reads++;
        std::memcpy(dst, blocks.at(b).data(),
                    services::fs::fsBlockBytes);
    }

    void
    write(uint32_t b, const void *src) override
    {
        writes++;
        std::memcpy(blocks.at(b).data(), src,
                    services::fs::fsBlockBytes);
    }

    std::vector<std::vector<uint8_t>> blocks;
    uint64_t reads = 0;
    uint64_t writes = 0;
};

TEST(BufCachePin, PinnedBuffersSurviveCachePressure)
{
    CountingDisk disk(256);
    services::fs::BufCache cache(4);
    // Fill a block, pin it, then stream far more blocks than the
    // cache holds: the pinned buffer must not be written back early
    // (write-ahead ordering) nor evicted.
    auto &pinned = cache.get(disk, 10);
    pinned.data[0] = 0x77;
    pinned.dirty = true;
    cache.pin(10, true);

    uint64_t writes_before = disk.writes;
    for (uint32_t b = 20; b < 60; b++)
        cache.get(disk, b);
    // The pinned dirty block was never flushed by eviction.
    EXPECT_EQ(disk.writes, writes_before);
    auto &still = cache.get(disk, 10);
    EXPECT_EQ(still.data[0], 0x77);
    EXPECT_TRUE(still.dirty);

    cache.pin(10, false);
    for (uint32_t b = 60; b < 100; b++)
        cache.get(disk, b);
    // Unpinned, it eventually ages out and is written back.
    EXPECT_GT(disk.writes, writes_before);
    EXPECT_EQ(disk.blocks[10][0], 0x77);
}

TEST(BufCachePin, HitCountersTrackLocality)
{
    CountingDisk disk(64);
    services::fs::BufCache cache(8);
    for (int round = 0; round < 10; round++)
        for (uint32_t b = 0; b < 4; b++)
            cache.get(disk, b);
    EXPECT_EQ(cache.misses.value(), 4u);
    EXPECT_EQ(cache.hits.value(), 36u);
    EXPECT_EQ(disk.reads, 4u);
}

/** A disk that logs every read and write, in order, with a hash of
 *  the bytes written. */
class RecordingDisk : public services::fs::BlockIo
{
  public:
    explicit RecordingDisk(uint32_t n)
        : blocks(n, std::vector<uint8_t>(services::fs::fsBlockBytes))
    {
        for (uint32_t b = 0; b < n; b++)
            for (size_t i = 0; i < blocks[b].size(); i++)
                blocks[b][i] = uint8_t(b * 31 + i);
    }

    void
    read(uint32_t b, void *dst) override
    {
        log.emplace_back('R', b, 0);
        std::memcpy(dst, blocks.at(b).data(), blocks[b].size());
    }

    void
    write(uint32_t b, const void *src) override
    {
        std::memcpy(blocks.at(b).data(), src, blocks[b].size());
        uint64_t h = 1469598103934665603ull;
        for (uint8_t c : blocks[b])
            h = (h ^ c) * 1099511628211ull;
        log.emplace_back('W', b, h);
    }

    std::vector<std::vector<uint8_t>> blocks;
    std::vector<std::tuple<char, uint32_t, uint64_t>> log;
};

/**
 * The list-scan buffer cache BufCache's index replaced, kept as the
 * reference for the property test below: every lookup scans the list
 * front to back.
 */
class ListScanBufCache
{
  public:
    explicit ListScanBufCache(uint32_t nbufs) : capacity(nbufs) {}

    using Buf = services::fs::BufCache::Buf;

    Buf &
    get(services::fs::BlockIo &io, uint32_t block_no)
    {
        for (auto &b : bufs) {
            if (b.blockNo == block_no) {
                hits++;
                b.lru = ++clock;
                return b;
            }
        }
        misses++;
        if (bufs.size() >= capacity) {
            auto victim = bufs.end();
            for (auto it = bufs.begin(); it != bufs.end(); ++it) {
                if (it->pinned)
                    continue;
                if (victim == bufs.end() || it->lru < victim->lru)
                    victim = it;
            }
            if (victim != bufs.end()) {
                if (victim->dirty)
                    io.write(victim->blockNo, victim->data.data());
                bufs.erase(victim);
            }
        }
        Buf &b = bufs.emplace_back();
        b.blockNo = block_no;
        b.lru = ++clock;
        io.read(block_no, b.data.data());
        return b;
    }

    void
    pin(uint32_t block_no, bool pinned)
    {
        for (auto &b : bufs) {
            if (b.blockNo == block_no) {
                b.pinned = pinned;
                return;
            }
        }
    }

    void
    flush(services::fs::BlockIo &io, uint32_t block_no)
    {
        for (auto &b : bufs) {
            if (b.blockNo == block_no && b.dirty) {
                io.write(b.blockNo, b.data.data());
                b.dirty = false;
                return;
            }
        }
    }

    void
    flushAll(services::fs::BlockIo &io)
    {
        for (auto &b : bufs) {
            if (b.dirty) {
                io.write(b.blockNo, b.data.data());
                b.dirty = false;
            }
        }
    }

    void invalidateAll() { bufs.clear(); }

    size_t size() const { return bufs.size(); }

    uint64_t hits = 0, misses = 0;

  private:
    uint32_t capacity;
    uint64_t clock = 0;
    std::list<Buf> bufs;
};

TEST(BufCacheProperty, MatchesListScanCache)
{
    for (uint32_t cap = 1; cap <= 8; cap++) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        const uint32_t nblocks = cap + 5;
        RecordingDisk disk(nblocks), ref_disk(nblocks);
        services::fs::BufCache cache(cap);
        ListScanBufCache ref(cap);
        Rng rng(0xb0fc0000 + cap);
        bool grew = false;
        for (int op = 0; op < 4000; op++) {
            SCOPED_TRACE("op " + std::to_string(op));
            uint32_t b = uint32_t(rng.nextBounded(nblocks));
            uint64_t action = rng.nextBounded(100);
            if (action < 50) {
                auto &buf = cache.get(disk, b);
                auto &ref_buf = ref.get(ref_disk, b);
                ASSERT_EQ(buf.blockNo, b);
                ASSERT_EQ(buf.data, ref_buf.data);
                ASSERT_EQ(buf.dirty, ref_buf.dirty);
                ASSERT_EQ(buf.pinned, ref_buf.pinned);
                if (action < 25) {
                    size_t at = rng.nextBounded(buf.data.size());
                    buf.data[at] = ref_buf.data[at] = uint8_t(rng.next());
                    buf.dirty = ref_buf.dirty = true;
                }
            } else if (action < 70) {
                // Pin far more often than unpin, so every buffer is
                // sometimes pinned and the cache grows past capacity.
                bool pinned = action < 66;
                cache.pin(b, pinned);
                ref.pin(b, pinned);
            } else if (action < 85) {
                cache.flush(disk, b);
                ref.flush(ref_disk, b);
            } else if (action < 99) {
                cache.flushAll(disk);
                ref.flushAll(ref_disk);
            } else {
                cache.invalidateAll();
                ref.invalidateAll();
            }
            grew = grew || ref.size() > cap;
            ASSERT_EQ(cache.hits.value(), ref.hits);
            ASSERT_EQ(cache.misses.value(), ref.misses);
            ASSERT_EQ(disk.log, ref_disk.log);
        }
        EXPECT_TRUE(grew) << "the stream never pinned every buffer";
        EXPECT_GT(cache.misses.value(), uint64_t(nblocks));
        EXPECT_EQ(disk.blocks, ref_disk.blocks);
    }
}

} // namespace
} // namespace xpc::apps
