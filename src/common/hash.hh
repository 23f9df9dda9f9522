/**
 * @file
 * 64-bit FNV-1a, the one content hash behind every persisted key:
 * sim-cache record names, snapshot config keys and checksums, daemon
 * job ids and trace digests. Their values are stored on disk and
 * pinned by tests/hash_test.cc, so the byte order fed to the hash is
 * part of each caller's file format.
 */

#ifndef HIRISE_COMMON_HASH_HH
#define HIRISE_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace hirise {

class Fnv1a
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
    }

    void str(std::string_view s) { bytes(s.data(), s.size()); }

    /** The object representation of @p v (little-endian on every
     *  supported host). */
    template <typename T>
    void
    pod(T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&v, sizeof(v));
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace hirise

#endif // HIRISE_COMMON_HASH_HH
