#include "service/cache.h"

#include <cstdio>
#include <stdexcept>

#include "core/hash.h"
#include "robust/fault.h"

namespace tqan {
namespace service {

constexpr char CompileCache::kMagic[9];

CompileCache::CompileCache(std::string path)
{
    if (path.empty())
        return;
    try {
        journal_.open(path, [this](std::uint64_t key,
                                    std::string_view blob) {
            if (blob.size() < 4)
                return false;
            std::uint32_t reqLen = robust::getU32(
                reinterpret_cast<const unsigned char *>(blob.data()));
            if (reqLen > blob.size() - 4)
                return false;
            std::string_view req = blob.substr(4, reqLen);
            if (core::fnv1a64(req.data(), req.size()) != key)
                return false;  // key is not the content address
            map_[key] = Entry{std::string(req),
                              std::string(blob.substr(4 + reqLen))};
            return true;
        });
    } catch (const std::exception &ex) {
        // Degrade to in-memory-only rather than refuse to serve.
        std::fprintf(stderr,
                     "tqan: cache store %s not usable (%s); running "
                     "in-memory only\n",
                     path.c_str(), ex.what());
    }
}

bool
CompileCache::lookup(std::uint64_t key, const std::string &request,
                     std::string *payload)
{
    // Injected miss: the caller recompiles and re-inserts; the tests
    // pin that the recomputed payload is identical.
    if (robust::faultPoint("cache.lookup"))
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end() || it->second.request != request)
        return false;
    *payload = it->second.payload;
    return true;
}

void
CompileCache::insert(std::uint64_t key, const std::string &request,
                     const std::string &payload)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end() && it->second.request == request &&
        it->second.payload == payload)
        return;
    if (journal_.isOpen()) {
        try {
            std::string blob;
            blob.reserve(4 + request.size() + payload.size());
            robust::putU32(blob,
                           static_cast<std::uint32_t>(request.size()));
            blob += request;
            blob += payload;
            journal_.append(key, blob);
        } catch (const std::exception &ex) {
            // The entry stays served from memory; a torn tail is
            // dropped by the next open's verified-prefix load.
            std::fprintf(stderr,
                         "tqan: cache append failed (%s); entry "
                         "kept in memory only\n",
                         ex.what());
        }
    }
    map_[key] = Entry{request, payload};
}

std::size_t
CompileCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

} // namespace service
} // namespace tqan
