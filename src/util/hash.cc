#include "util/hash.hh"

#include <array>

namespace socflow {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slice-by-8 tables for the reflected polynomial 0xEDB88320: row 0 is
 * the classic byte table, row k advances a byte's CRC through k more
 * zero bytes, so eight bytes fold in with eight independent lookups.
 */
constexpr CrcTables kCrcTables = [] {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}();

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    const auto &t = kCrcTables;
    std::uint32_t c = 0xFFFFFFFFu;
    for (; len >= 8; p += 8, len -= 8) {
        // Assembled bytewise, so the result is independent of host
        // byte order.
        const std::uint32_t lo =
            c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
                 std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; len > 0; ++p, --len)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace socflow
