#include "service/tenant_registry.h"

#include <algorithm>
#include <utility>

namespace dcp {

Status TenantRegistry::Register(const TenantConfig& config) {
  if (config.name.empty()) {
    return Status::InvalidArgument("tenant name must be non-empty");
  }
  if (config.name.size() > 256) {
    return Status::InvalidArgument("tenant name too long: " + config.name);
  }
  // Label the engine's cache and store series with the tenant, or every tenant's
  // series would merge into one in a scrape.
  EngineOptions options = config.options;
  if (options.metrics_tenant.empty()) {
    options.metrics_tenant = config.name;
  }
  // Engine construction (store warm-load included) happens outside the lock; only the
  // map insert is serialized.
  auto engine = std::make_shared<Engine>(config.cluster, std::move(options));
  MutexLock lock(mu_);
  const auto [it, inserted] = tenants_.emplace(config.name, std::move(engine));
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument("tenant '" + config.name + "' already registered");
  }
  return Status::Ok();
}

std::shared_ptr<Engine> TenantRegistry::Find(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

std::vector<std::string> TenantRegistry::Names() const {
  std::vector<std::string> names;
  {
    MutexLock lock(mu_);
    names.reserve(tenants_.size());
    for (const auto& [name, engine] : tenants_) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace dcp
