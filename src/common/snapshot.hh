/**
 * @file
 * Versioned binary snapshot serialization (checkpoint/restore of a
 * running simulation). A snapshot is a flat byte payload written
 * through snap::Writer and read back through snap::Reader, framed on
 * disk by a fixed header:
 *
 *   magic "HRSN" | format version | config key | payload size | FNV-1a
 *
 * The config key is a caller-supplied content hash of everything the
 * restoring process must already have reconstructed identically
 * (SwitchSpec, SimConfig, pattern descriptor, fault schedule): a
 * snapshot only restores *state*, never configuration, so loading one
 * against a mismatched configuration is rejected up front instead of
 * silently producing garbage.
 *
 * Serialization convention: every stateful component exposes
 *   void save(snap::Writer &) const;
 *   void load(snap::Reader &);
 * writing fields in declaration order, scalars through pod() and
 * containers as a u64 count followed by elements. load() runs on a
 * freshly constructed object of the *same configuration* and
 * overwrites state only. Restored runs must be bit-identical to
 * uninterrupted ones (tests/snapshot_test.cc enforces this across
 * dense and event stepping, with fault events active).
 *
 * Bump kSnapshotVersion whenever any component's save layout changes;
 * stale snapshots are then rejected at load.
 */

#ifndef HIRISE_COMMON_SNAPSHOT_HH
#define HIRISE_COMMON_SNAPSHOT_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace hirise::snap {

/** Snapshot format version; part of the on-disk header. v1: initial
 *  format (NetworkSim + fabric + arbiters + fault state). */
constexpr std::uint32_t kSnapshotVersion = 1;

class Writer
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                      "pod() serializes scalars only");
        bytes(&v, sizeof(T));
    }

    void u32(std::uint32_t v) { pod(v); }
    void u64(std::uint64_t v) { pod(v); }
    void b(bool v) { pod(static_cast<std::uint8_t>(v ? 1 : 0)); }

    /** u64 count + raw element bytes (trivially copyable T). */
    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        u64(v.size());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }

    /** Frame the payload with the snapshot header and write it
     *  atomically (temp file + rename). Returns false on I/O error. */
    bool writeFile(const std::string &path, std::uint64_t key) const;

  private:
    std::vector<std::uint8_t> buf_;
};

class Reader
{
  public:
    Reader() = default;
    explicit Reader(std::vector<std::uint8_t> payload)
        : buf_(std::move(payload))
    {}

    /**
     * Open @p path, verify magic / version / checksum, and check the
     * embedded config key against @p key. Returns false (with a
     * warn()) on any mismatch — never loads partial state.
     */
    bool readFile(const std::string &path, std::uint64_t key);

    void
    bytes(void *p, std::size_t n)
    {
        sim_assert(pos_ + n <= buf_.size(),
                   "snapshot underrun: need %zu bytes at offset %zu "
                   "of %zu",
                   n, pos_, buf_.size());
        std::memcpy(p, buf_.data() + pos_, n);
        pos_ += n;
    }

    template <typename T>
    T
    pod()
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        T v;
        bytes(&v, sizeof(T));
        return v;
    }

    std::uint32_t u32() { return pod<std::uint32_t>(); }
    std::uint64_t u64() { return pod<std::uint64_t>(); }
    bool b() { return pod<std::uint8_t>() != 0; }

    template <typename T>
    void
    vec(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint64_t n = u64();
        v.resize(static_cast<std::size_t>(n));
        if (n)
            bytes(v.data(), v.size() * sizeof(T));
    }

    /** All payload bytes consumed (save/load layouts agree). */
    bool done() const { return pos_ == buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
};

} // namespace hirise::snap

#endif // HIRISE_COMMON_SNAPSHOT_HH
