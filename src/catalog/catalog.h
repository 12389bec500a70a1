#ifndef RAINBOW_CATALOG_CATALOG_H_
#define RAINBOW_CATALOG_CATALOG_H_

#include <utility>

#include "catalog/schema.h"

namespace rainbow {

/// The name server's data: the replication schema SystemConfig::Validate()
/// built. A RainbowSystem holds the one copy; the name server answers
/// lookups from it by reference.
class Catalog {
 public:
  explicit Catalog(ReplicationSchema schema) : schema_(std::move(schema)) {}

  const ReplicationSchema& schema() const { return schema_; }

 private:
  ReplicationSchema schema_;
};

}  // namespace rainbow

#endif  // RAINBOW_CATALOG_CATALOG_H_
