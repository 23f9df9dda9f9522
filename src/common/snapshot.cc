#include "common/snapshot.hh"

#include <cstdio>

#include "common/hash.hh"

namespace hirise::snap {

namespace {

constexpr std::uint32_t kMagic = 0x4852534e; // "HRSN"

struct FileHeader
{
    std::uint32_t magic;
    std::uint32_t version;
    std::uint64_t key;
    std::uint64_t payloadSize;
    std::uint64_t checksum;
};

std::uint64_t
fnv1a(const std::uint8_t *p, std::size_t n)
{
    Fnv1a h;
    h.bytes(p, n);
    return h.value();
}

} // namespace

bool
Writer::writeFile(const std::string &path, std::uint64_t key) const
{
    FileHeader h{};
    h.magic = kMagic;
    h.version = kSnapshotVersion;
    h.key = key;
    h.payloadSize = buf_.size();
    h.checksum = fnv1a(buf_.data(), buf_.size());

    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1;
    if (ok && !buf_.empty())
        ok = std::fwrite(buf_.data(), 1, buf_.size(), f) ==
             buf_.size();
    ok = (std::fclose(f) == 0) && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
Reader::readFile(const std::string &path, std::uint64_t key)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        warn("snapshot: cannot open '%s'", path.c_str());
        return false;
    }
    FileHeader h{};
    if (std::fread(&h, sizeof(h), 1, f) != 1) {
        warn("snapshot '%s': truncated header", path.c_str());
        std::fclose(f);
        return false;
    }
    if (h.magic != kMagic) {
        warn("snapshot '%s': bad magic", path.c_str());
        std::fclose(f);
        return false;
    }
    if (h.version != kSnapshotVersion) {
        warn("snapshot '%s': format version %u, expected %u",
             path.c_str(), h.version, kSnapshotVersion);
        std::fclose(f);
        return false;
    }
    if (h.key != key) {
        warn("snapshot '%s': config key mismatch (snapshot "
             "%016llx, expected %016llx) — refusing to restore "
             "state into a different configuration",
             path.c_str(), static_cast<unsigned long long>(h.key),
             static_cast<unsigned long long>(key));
        std::fclose(f);
        return false;
    }
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(h.payloadSize));
    if (!payload.empty() &&
        std::fread(payload.data(), 1, payload.size(), f) !=
            payload.size()) {
        warn("snapshot '%s': truncated payload", path.c_str());
        std::fclose(f);
        return false;
    }
    std::fclose(f);
    if (fnv1a(payload.data(), payload.size()) != h.checksum) {
        warn("snapshot '%s': payload checksum mismatch",
             path.c_str());
        return false;
    }
    buf_ = std::move(payload);
    pos_ = 0;
    return true;
}

} // namespace hirise::snap
