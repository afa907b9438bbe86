#include "robust/checkpoint.h"

#include "core/profile.h"

namespace tqan {
namespace robust {

constexpr char Checkpoint::kMagic[9];
constexpr std::uint64_t Checkpoint::kMetaShard;

Checkpoint::Checkpoint(std::string path)
{
    if (!path.empty())
        journal_.open(path, [this](std::uint64_t shard,
                                   std::string_view payload) {
            map_[shard] = std::string(payload);
            return true;
        });
}

void
Checkpoint::append(std::uint64_t shard, const std::string &payload)
{
    if (!enabled())
        return;
    journal_.append(shard, payload);
    core::profile::count("robust.ckpt.append");
    map_[shard] = payload;
}

void
Checkpoint::reset()
{
    journal_.reset();
    map_.clear();
}

} // namespace robust
} // namespace tqan
