#include "host/catalog.h"

#include <unordered_set>

#include "gdf/row_ops.h"

namespace sirius::host {

Status Catalog::CreateTable(const std::string& name, format::TablePtr table) {
  if (table == nullptr) return Status::Invalid("CreateTable: null table");
  {
    std::lock_guard<std::mutex> lock(mu_);
    tables_[name] = std::move(table);
    ndv_cache_.clear();  // stats for a replaced table are stale
    ++version_;
  }
  std::lock_guard<std::mutex> lock(listeners_mu_);
  for (const auto& entry : listeners_) entry.second(name);
  return Status::OK();
}

uint64_t Catalog::AddWriteListener(WriteListener listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.emplace(next_listener_, std::move(listener));
  return next_listener_++;
}

void Catalog::RemoveWriteListener(uint64_t id) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.erase(id);
}

uint64_t Catalog::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

Result<format::TablePtr> Catalog::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::KeyError("table '" + name + "' does not exist");
  }
  return it->second;
}

Result<format::Schema> Catalog::GetTableSchema(const std::string& name) const {
  SIRIUS_ASSIGN_OR_RETURN(format::TablePtr t, GetTable(name));
  return t->schema();
}

double Catalog::TableRows(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? -1 : static_cast<double>(it->second->num_rows());
}

double Catalog::ColumnDistinct(const std::string& table,
                               const std::string& column) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = table + "." + column;
  auto cached = ndv_cache_.find(key);
  if (cached != ndv_cache_.end()) return cached->second;
  auto it = tables_.find(table);
  if (it == tables_.end()) return -1;
  format::ColumnPtr col = it->second->ColumnByName(column);
  if (col == nullptr) return -1;
  // Exact count via value hashes (64-bit collisions are negligible at the
  // cardinalities an estimator cares about).
  std::unordered_set<uint64_t> values;
  values.reserve(col->length());
  for (size_t i = 0; i < col->length(); ++i) {
    values.insert(gdf::HashValueAt(*col, i));
  }
  double ndv = static_cast<double>(values.size());
  ndv_cache_[key] = ndv;
  return ndv;
}

bool Catalog::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    (void)table;
    names.push_back(name);
  }
  return names;
}

uint64_t Catalog::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [name, table] : tables_) {
    (void)name;
    total += table->MemoryUsage();
  }
  return total;
}

}  // namespace sirius::host
