// The catalog workloads' answer oracle: a model of every live product built
// from the generator's own XML text and updated as writes succeed. It never
// calls into the engine (no xdb parser, evaluator or index), so it can check
// the engine's answers.
#ifndef XDB_BENCH_E2E_CATALOG_MODEL_H_
#define XDB_BENCH_E2E_CATALOG_MODEL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"

namespace bench_e2e {

struct Product {
  std::string name;
  std::string price;  // RegPrice text exactly as generated or last written
};

/// The products of one GenCatalogXml document, in document order, read by
/// plain substring search over the generator's output.
std::vector<Product> ScanProducts(const std::string& xml);

class CatalogModel {
 public:
  /// One live product with a given name: its document and its position
  /// among that document's products.
  struct Hit {
    uint64_t doc_id = 0;
    size_t index = 0;
  };

  void AddDoc(uint64_t doc_id, std::vector<Product> products);
  void RemoveDoc(uint64_t doc_id);
  void SetPrice(uint64_t doc_id, size_t index, std::string price);

  /// Live products named `name`, in (doc_id, index) order — the document
  /// order the engine returns result nodes in.
  std::vector<Hit> Lookup(const std::string& name) const;
  const Product& At(const Hit& hit) const {
    return docs_.at(hit.doc_id)[hit.index];
  }
  const std::vector<Product>& DocProducts(uint64_t doc_id) const {
    return docs_.at(doc_id);
  }

  size_t live_docs() const { return live_.size(); }
  /// A uniformly chosen live document (the model must not be empty).
  uint64_t RandomDoc(xdb::Random* rng) const {
    return live_[rng->Uniform(live_.size())];
  }
  /// A uniformly chosen live product's location.
  Hit RandomProduct(xdb::Random* rng) const;
  /// Every live document id, ascending.
  std::vector<uint64_t> DocIds() const;

 private:
  std::unordered_map<uint64_t, std::vector<Product>> docs_;
  std::vector<uint64_t> live_;                  // for uniform sampling
  std::unordered_map<uint64_t, size_t> live_pos_;
  std::unordered_map<std::string, std::vector<Hit>> by_name_;
};

}  // namespace bench_e2e

#endif  // XDB_BENCH_E2E_CATALOG_MODEL_H_
