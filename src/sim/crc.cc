#include "crc.hh"

#include <bit>
#include <cstring>

namespace xpc {

namespace {

/**
 * Slicing-by-8 tables: t[0] is the classic bytewise table, and
 * t[k][i] is the CRC of byte i followed by k zero bytes, so eight
 * lookups fold eight input bytes at once.
 */
struct CrcTable
{
    uint32_t t[8][256];

    CrcTable()
    {
        for (uint32_t i = 0; i < 256; i++) {
            uint32_t c = i;
            for (int k = 0; k < 8; k++)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (uint32_t i = 0; i < 256; i++)
            for (int k = 1; k < 8; k++)
                t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
    }
};

const CrcTable crcTable;

uint32_t
loadLe32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap32(v);
    return v;
}

} // namespace

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
    const auto *p = static_cast<const uint8_t *>(data);
    const auto &t = crcTable.t;
    uint32_t c = seed ^ 0xffffffffu;
    for (; len >= 8; p += 8, len -= 8) {
        uint32_t lo = loadLe32(p) ^ c;
        uint32_t hi = loadLe32(p + 4);
        c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
            t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; len > 0; p++, len--)
        c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace xpc
