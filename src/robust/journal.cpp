#include "robust/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/hash.h"
#include "robust/fault.h"
#include "robust/io.h"

namespace tqan {
namespace robust {

constexpr std::uint32_t Journal::kMaxBlob;

void
putU32(std::string &buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putU64(std::string &buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf += static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

namespace {

constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kHeaderSize = 8 + 4 + 4;
constexpr std::size_t kRecordHead = 8 + 4 + 8;

std::uint64_t
recordSum(std::uint64_t id, std::string_view blob)
{
    std::string le;
    putU64(le, id);
    return core::fnv1a64(blob.data(), blob.size(),
                         core::fnv1a64(le.data(), le.size()));
}

/** Closes a descriptor on scope exit unless released. */
struct FdGuard
{
    int fd;
    ~FdGuard()
    {
        if (fd >= 0)
            ::close(fd);
    }
    int release() { return std::exchange(fd, -1); }
};

std::runtime_error
ioError(const std::string &what, const std::string &path)
{
    std::string reason = std::strerror(errno);
    return std::runtime_error(what + " " + path + ": " + reason);
}

} // namespace

Journal::Journal(std::string magic, const std::string &site)
    : magic_(std::move(magic)), openSite_(site + ".open"),
      appendSite_(site + ".append"), fsyncSite_(site + ".fsync")
{
    if (magic_.size() != 8)
        throw std::invalid_argument("journal magic must be 8 bytes");
}

Journal::~Journal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
Journal::open(const std::string &path, const OnEntry &onEntry)
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    path_ = path;
    load_ = LoadInfo{};
    std::string data;
    readFileRetry(path_, &data, openSite_.c_str(), &load_.retries);

    const auto *bytes =
        reinterpret_cast<const unsigned char *>(data.data());
    std::size_t good = 0;  // verified prefix length
    if (data.size() >= kHeaderSize &&
        std::memcmp(data.data(), magic_.data(), 8) == 0 &&
        getU32(bytes + 8) == kFormatVersion) {
        good = kHeaderSize;
        while (good + kRecordHead <= data.size()) {
            const unsigned char *p = bytes + good;
            std::uint64_t id = getU64(p);
            std::uint32_t len = getU32(p + 8);
            if (len > kMaxBlob ||
                good + kRecordHead + len > data.size())
                break;  // corrupt length or truncated tail
            std::string_view blob(data.data() + good + kRecordHead,
                                  len);
            if (recordSum(id, blob) != getU64(p + 12) ||
                !onEntry(id, blob))
                break;  // corrupt or refused record
            good += kRecordHead + len;
            ++load_.loadedEntries;
        }
        load_.droppedBytes = data.size() - good;
    } else if (!data.empty()) {
        load_.rebuilt = true;  // foreign or torn header: start over
    }

    if (good > 0 && good < data.size() &&
        ::truncate(path_.c_str(), static_cast<off_t>(good)) != 0) {
        // Could not truncate: rewrite the verified prefix instead.
        FdGuard rw{::open(path_.c_str(), O_WRONLY | O_TRUNC, 0644)};
        if (rw.fd >= 0) {
            writeAll(rw.fd, data.data(), good);
            fsyncRetry(rw.fd);
        }
    }
    int flags = O_WRONLY | O_CREAT | O_APPEND | (good ? 0 : O_TRUNC);
    FdGuard fd{::open(path_.c_str(), flags, 0644)};
    if (fd.fd < 0)
        throw ioError("cannot open journal", path_);
    // A fresh or rebuilt journal gets a clean header, durable before
    // the first append can land behind it.
    if (good == 0)
        writeHeader(fd.fd);
    fd_ = fd.release();
}

void
Journal::writeHeader(int fd) const
{
    std::string h = magic_;
    putU32(h, kFormatVersion);
    putU32(h, 0);
    writeAll(fd, h.data(), h.size());
    fsyncRetry(fd);
}

void
Journal::append(std::uint64_t id, std::string_view blob)
{
    if (blob.size() > kMaxBlob)
        throw std::runtime_error("journal record too large for " +
                                 path_);

    std::string buf;
    buf.reserve(kRecordHead + blob.size());
    putU64(buf, id);
    putU32(buf, static_cast<std::uint32_t>(blob.size()));
    putU64(buf, recordSum(id, blob));
    buf += blob;

    if (faultPoint(appendSite_.c_str())) {
        // Injected torn write: leave half the record on disk, exactly
        // what a crash mid-append produces.  The next open drops it.
        writeAll(fd_, buf.data(), buf.size() / 2);
        throw std::runtime_error("injected fault: " + appendSite_ +
                                 " (torn write)");
    }
    writeAll(fd_, buf.data(), buf.size());
    if (faultPoint(fsyncSite_.c_str()))
        throw std::runtime_error("injected fault: " + fsyncSite_);
    // The durability handshake: only after fsync does append()
    // return and the view acknowledge the record.
    fsyncRetry(fd_);
}

void
Journal::reset()
{
    if (fd_ < 0)
        return;
    if (::ftruncate(fd_, 0) != 0)
        throw ioError("cannot reset journal", path_);
    writeHeader(fd_);
    load_ = LoadInfo{};
}

} // namespace robust
} // namespace tqan
