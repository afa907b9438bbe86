/**
 * @file
 * The one shape of every name-selected strategy table: placement
 * mappers (qap/mapper.h), routers (core/router_registry.h) and
 * compiler backends (core/backend.h).
 *
 * A Registry is an immutable name -> instance table built once from
 * the built-in instances, each keyed by its own name().  Owners build
 * theirs as a function-local static, so the table exists before its
 * first lookup (no static-initialization-order or dead-TU issues in
 * the static library) and concurrent first lookups are safe without
 * a lock.  Instances are shared by every caller, so the strategies
 * must be stateless (const methods only).
 *
 * A new strategy is one more entry in its owner's table.
 */

#ifndef TQAN_CORE_REGISTRY_H
#define TQAN_CORE_REGISTRY_H

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace tqan {
namespace core {

template <class T>
class Registry
{
  public:
    /** A table over one instance of each of the `Impl` types.
     * `kind` names the entries in lookup errors ("mapper",
     * "router", "compiler backend").
     * @throws std::logic_error when two entries share a name */
    template <class... Impl>
    static Registry of(std::string kind)
    {
        Registry r(std::move(kind));
        (r.add(std::make_unique<const Impl>()), ...);
        return r;
    }

    /** The entry named `name`.
     * @throws std::invalid_argument naming the kind and listing
     *         every registered name */
    const T &get(const std::string &name) const
    {
        auto it = byName_.find(name);
        if (it != byName_.end())
            return *it->second;
        std::string known;
        for (const auto &kv : byName_)
            known += (known.empty() ? "" : ", ") + kv.first;
        throw std::invalid_argument("unknown " + kind_ + " '" + name +
                                    "' (registered: " + known + ")");
    }

    bool has(const std::string &name) const
    {
        return byName_.count(name) != 0;
    }

    /** Registered names, sorted. */
    std::vector<std::string> names() const
    {
        std::vector<std::string> out;
        for (const auto &kv : byName_)
            out.push_back(kv.first);
        return out;
    }

  private:
    explicit Registry(std::string kind) : kind_(std::move(kind)) {}

    void add(std::unique_ptr<const T> entry)
    {
        std::string name = entry->name();
        if (!byName_.emplace(name, std::move(entry)).second)
            throw std::logic_error("duplicate " + kind_ + " '" + name +
                                   "'");
    }

    std::string kind_;
    std::map<std::string, std::unique_ptr<const T>> byName_;
};

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_REGISTRY_H
