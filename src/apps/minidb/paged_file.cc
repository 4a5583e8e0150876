#include "paged_file.hh"

#include <cstring>

#include "services/fs_server.hh"
#include "sim/logging.hh"

namespace xpc::apps {

using services::FsServer;

PagedFile::PagedFile(core::Transport &tr, hw::Core &c,
                     kernel::Thread &cl, core::ServiceId fs,
                     const std::string &path, uint32_t cache_pages)
    : transport(tr), core(c), client(cl), fsSvc(fs),
      capacity(cache_pages)
{
    panic_if(cache_pages == 0, "page cache needs at least one page");
    fd = FsServer::clientOpen(transport, core, client, fsSvc, path,
                              true);
    fatal_if(fd < 0, "cannot open database file '%s'", path.c_str());
    // Databases are created fresh in every experiment; the page
    // count grows through appendPage().
    numPages = 0;
}

void
PagedFile::adoptExisting()
{
    int64_t bytes = FsServer::clientStat(transport, core, client,
                                         fsSvc, fd);
    if (bytes > 0) {
        adoptPages(uint32_t((uint64_t(bytes) + dbPageBytes - 1) /
                            dbPageBytes));
    }
}

DbPage *
PagedFile::find(uint32_t page_no)
{
    DbPage *p = page_no < slots.size() ? slots[page_no] : nullptr;
    if (p)
        p->lru = ++clock;
    return p;
}

DbPage &
PagedFile::admit(uint32_t page_no)
{
    if (pages.size() >= capacity)
        evictOne();
    DbPage &p = pages.emplace_back();
    p.pageNo = page_no;
    p.lru = ++clock;
    if (page_no >= slots.size())
        slots.resize(size_t(page_no) + 1, nullptr);
    slots[page_no] = &p;
    return p;
}

void
PagedFile::writeThrough(DbPage &page)
{
    pageWrites.inc();
    int64_t r = FsServer::clientWrite(
        transport, core, client, fsSvc, fd,
        uint64_t(page.pageNo) * dbPageBytes, page.data.data(),
        dbPageBytes);
    panic_if(r != int64_t(dbPageBytes), "short database page write");
    page.dirty = false;
}

void
PagedFile::evictOne()
{
    auto victim = pages.begin();
    if (preferCleanEviction) {
        // WAL discipline: pick the LRU *clean* page when one exists;
        // only write a dirty page home early if everything is dirty.
        auto clean = pages.end();
        for (auto it = pages.begin(); it != pages.end(); ++it) {
            if (!it->dirty &&
                (clean == pages.end() || it->lru < clean->lru))
                clean = it;
        }
        if (clean != pages.end()) {
            slots[clean->pageNo] = nullptr;
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
    slots[victim->pageNo] = nullptr;
    pages.erase(victim);
}

DbPage &
PagedFile::get(uint32_t page_no)
{
    panic_if(page_no >= numPages, "page %u beyond the file", page_no);
    if (DbPage *hit = find(page_no)) {
        cacheHits.inc();
        return *hit;
    }
    cacheMisses.inc();

    DbPage &p = admit(page_no);
    pageReads.inc();
    int64_t r = FsServer::clientRead(
        transport, core, client, fsSvc, fd,
        uint64_t(page_no) * dbPageBytes, p.data.data(), dbPageBytes);
    if (r < int64_t(dbPageBytes)) {
        // Sparse tail: unwritten bytes read as zero.
        std::memset(p.data.data() + (r > 0 ? r : 0), 0,
                    dbPageBytes - uint64_t(r > 0 ? r : 0));
    }
    return p;
}

void
PagedFile::markDirty(uint32_t page_no)
{
    DbPage *p = find(page_no);
    panic_if(!p, "markDirty on an uncached page %u", page_no);
    if (!p->dirty) {
        if (preImageHook) {
            // Capture the pre-image before anyone modifies it.
            // NOTE: callers must markDirty *before* writing.
            preImageHook(page_no, *p);
        }
        dirtyList.push_back(page_no);
    }
    p->dirty = true;
}

void
PagedFile::flushDirty()
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
PagedFile::appendPage()
{
    uint32_t page_no = numPages++;
    // Materialize it in the cache as a zeroed page.
    admit(page_no).data.fill(0);
    return page_no;
}

} // namespace xpc::apps
