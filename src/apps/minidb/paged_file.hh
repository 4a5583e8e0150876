/**
 * @file
 * A paged file over the IPC file-system server, with a client-side
 * page cache - the storage layer under MiniDb's B+tree, standing in
 * for sqlite3's pager. Every cache miss and every flush is a real
 * read/write RPC to the FS server, which is precisely the IPC the
 * paper's Figure 1 and Figure 8 measure.
 */

#ifndef XPC_APPS_MINIDB_PAGED_FILE_HH
#define XPC_APPS_MINIDB_PAGED_FILE_HH

#include <array>
#include <functional>
#include <list>
#include <string>

#include "core/transport.hh"
#include "sim/stats.hh"

namespace xpc::apps {

constexpr uint64_t dbPageBytes = 4096;

/** One cached page. */
struct DbPage
{
    uint32_t pageNo = 0;
    bool dirty = false;
    uint64_t lru = 0;
    std::array<uint8_t, dbPageBytes> data;
};

/** FS-backed paged file with a fixed-size page cache. */
class PagedFile
{
  public:
    /**
     * Open (creating if needed) @p path on the FS service.
     * @param cache_pages page-cache capacity
     */
    PagedFile(core::Transport &transport, hw::Core &core,
              kernel::Thread &client, core::ServiceId fs_svc,
              const std::string &path, uint32_t cache_pages);

    /** Fetch a page, reading through the FS on a miss. */
    DbPage &get(uint32_t page_no);

    /** Mark a page dirty. Fires the pre-image hook the first time a
     *  page is dirtied while a hook is installed (journaling). */
    void markDirty(uint32_t page_no);

    /** Write all dirty pages through to the FS server. */
    void flushDirty();

    /** Extend the file by one zeroed page. @return its number. */
    uint32_t appendPage();

    /** Attach to an existing file of @p n pages: subsequent get()
     *  calls read them through from the FS (reopen support). */
    void
    adoptPages(uint32_t n)
    {
        numPages = std::max(numPages, n);
    }

    /** Attach to the file's existing extent: stat it on the FS
     *  server and adopt every page already (even partially) written
     *  - the crash-restart reopen path. */
    void adoptExisting();

    uint32_t pageCount() const { return numPages; }

    /** Journaling hook: called with (pageNo, preImage) on first dirty. */
    std::function<void(uint32_t, const DbPage &)> preImageHook;

    /**
     * Prefer evicting clean pages over dirty ones (WAL discipline:
     * a dirty page written home before its commit record would break
     * the write-ahead invariant). Default off - the classic pager
     * evicts strictly by LRU, and the benches depend on that exact
     * write-back sequence.
     */
    bool preferCleanEviction = false;

    /** Dirty page numbers in first-dirtied order. */
    const std::vector<uint32_t> &dirtyPages() const { return dirtyList; }

    Counter cacheHits;
    Counter cacheMisses;
    Counter pageReads;
    Counter pageWrites;

  private:
    core::Transport &transport;
    hw::Core &core;
    kernel::Thread &client;
    core::ServiceId fsSvc;
    int64_t fd = -1;
    uint32_t numPages = 0;
    uint32_t capacity;
    uint64_t clock = 0;
    /** The cached pages, in no particular order: the eviction victim
     *  is picked by its (unique) lru stamp, not by position. */
    std::list<DbPage> pages;
    /** Page number -> its cached page, or null. Host-only bookkeeping,
     *  like the rest of the cache: lookups cost no simulated cycle. */
    std::vector<DbPage *> slots;
    std::vector<uint32_t> dirtyList;

    DbPage *find(uint32_t page_no);
    /** Cache @p page_no (not yet cached) in a fresh page, evicting
     *  first when full. The caller fills its bytes. */
    DbPage &admit(uint32_t page_no);
    void writeThrough(DbPage &page);
    void evictOne();
};

} // namespace xpc::apps

#endif // XPC_APPS_MINIDB_PAGED_FILE_HH
