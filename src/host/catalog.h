// In-memory catalog of the DuckX host database.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "format/table.h"
#include "opt/stats.h"
#include "sql/binder.h"

namespace sirius::host {

/// \brief Named tables + schemas. Doubles as the binder's catalog surface
/// and the optimizer's statistics provider.
class Catalog : public sql::CatalogInterface, public opt::StatsProvider {
 public:
  /// Registers (or replaces) a table, then calls every write listener with
  /// its name.
  Status CreateTable(const std::string& name, format::TablePtr table);

  /// Called after CreateTable registered table `name`, outside the catalog
  /// lock, so a cache built from the table it replaced can drop it at once.
  using WriteListener = std::function<void(const std::string& name)>;
  /// Registers `listener`; returns the id RemoveWriteListener takes.
  uint64_t AddWriteListener(WriteListener listener);
  /// Unregisters a listener. Returns only once no call to it is running, so
  /// the listener's owner may be destroyed right after.
  void RemoveWriteListener(uint64_t id);

  Result<format::TablePtr> GetTable(const std::string& name) const;
  Result<format::Schema> GetTableSchema(const std::string& name) const override;
  double TableRows(const std::string& name) const override;
  /// Exact distinct count, computed lazily on first request and cached.
  double ColumnDistinct(const std::string& table,
                        const std::string& column) const override;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Total bytes across all tables (sizing the cache region).
  uint64_t TotalBytes() const;

  /// Monotone write-version of the catalog: bumped by every CreateTable
  /// (create or replace). Cache layers stamp entries with the version they
  /// were built under and treat a version change as invalidation — any
  /// catalog write may change any cached query's answer.
  uint64_t version() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, format::TablePtr> tables_;
  uint64_t version_ = 0;  ///< guarded by mu_
  mutable std::map<std::string, double> ndv_cache_;  ///< "table.column" -> ndv

  /// Held while listeners run, so RemoveWriteListener waits for a running
  /// call to finish.
  std::mutex listeners_mu_;
  std::map<uint64_t, WriteListener> listeners_;  ///< guarded by listeners_mu_
  uint64_t next_listener_ = 0;                   ///< guarded by listeners_mu_
};

}  // namespace sirius::host
