/**
 * @file
 * A page-based B+tree over a PagedFile: MiniDb's table storage,
 * standing in for sqlite3's btree.c.
 *
 * Fixed-size 24-byte keys, values up to 1000 bytes, leaves linked
 * left-to-right for range scans. Inserts split full nodes bottom-up;
 * updates rewrite in place; deletes remove the slot without
 * rebalancing (YCSB never shrinks tables, and sqlite's own
 * balance-after-delete is lazy too).
 */

#ifndef XPC_APPS_MINIDB_BTREE_HH
#define XPC_APPS_MINIDB_BTREE_HH

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "apps/minidb/paged_file.hh"

namespace xpc::apps {

constexpr uint32_t btreeKeyBytes = 24;
constexpr uint32_t btreeValueMax = 1000;

/** Fixed-width key wrapper with memcmp ordering. */
struct BtKey
{
    uint8_t bytes[btreeKeyBytes] = {};

    static BtKey fromString(const std::string &s);

    bool
    operator<(const BtKey &other) const
    {
        return std::memcmp(bytes, other.bytes, btreeKeyBytes) < 0;
    }

    bool
    operator==(const BtKey &other) const
    {
        return std::memcmp(bytes, other.bytes, btreeKeyBytes) == 0;
    }
};

/** The B+tree. Page 0 of the file holds {magic, root, height}. */
class BTree
{
  public:
    explicit BTree(PagedFile &file);

    /** Format a fresh tree (page 0 header plus an empty root leaf). */
    void create();

    /** Insert or overwrite. @return true if the key was new. */
    bool put(const BtKey &key, const void *value, uint32_t len);

    /** Look up a key. */
    std::optional<std::vector<uint8_t>> get(const BtKey &key);

    /** Remove a key. @return true if it existed. */
    bool erase(const BtKey &key);

    /**
     * Range scan: visit up to @p limit records with key >= @p start,
     * in order. @p visit sees each value in place in the cached page,
     * so it must not call back into the pager. @return records visited.
     */
    uint32_t scan(const BtKey &start, uint32_t limit,
                  const std::function<void(const BtKey &,
                                           const uint8_t *,
                                           uint32_t)> &visit);

    /** Height of the tree (1 = root is a leaf). */
    uint32_t height();

    /** Walk the whole tree checking ordering and reachability;
     *  panics on violation (used by property tests). */
    void checkInvariants();

    uint64_t recordCount();

  private:
    PagedFile &file;

    struct SplitResult
    {
        bool split = false;
        BtKey sepKey;
        uint32_t rightPage = 0;
    };

    uint32_t rootPage();
    void setRoot(uint32_t page_no);

    SplitResult insertInto(uint32_t page_no, const BtKey &key,
                           const void *value, uint32_t len,
                           bool *inserted);
    uint32_t findLeaf(uint32_t page_no, const BtKey &key);
};

} // namespace xpc::apps

#endif // XPC_APPS_MINIDB_BTREE_HH
