#include "catalog_model.h"

#include <algorithm>

namespace bench_e2e {

namespace {
// Text between `open` and the next '<' at or after `*pos`; advances *pos
// past it. Empty when `open` does not occur again.
bool NextElementText(const std::string& xml, const std::string& open,
                     size_t* pos, std::string* out) {
  size_t at = xml.find(open, *pos);
  if (at == std::string::npos) return false;
  at += open.size();
  size_t end = xml.find('<', at);
  if (end == std::string::npos) return false;
  out->assign(xml, at, end - at);
  *pos = end;
  return true;
}
}  // namespace

std::vector<Product> ScanProducts(const std::string& xml) {
  std::vector<Product> out;
  size_t pos = 0;
  Product p;
  while (NextElementText(xml, "<ProductName>", &pos, &p.name) &&
         NextElementText(xml, "<RegPrice>", &pos, &p.price)) {
    out.push_back(p);
  }
  return out;
}

void CatalogModel::AddDoc(uint64_t doc_id, std::vector<Product> products) {
  for (size_t i = 0; i < products.size(); i++) {
    std::vector<Hit>& hits = by_name_[products[i].name];
    Hit h{doc_id, i};
    auto it = std::lower_bound(hits.begin(), hits.end(), h,
                               [](const Hit& a, const Hit& b) {
                                 return a.doc_id != b.doc_id
                                            ? a.doc_id < b.doc_id
                                            : a.index < b.index;
                               });
    hits.insert(it, h);
  }
  docs_[doc_id] = std::move(products);
  live_pos_[doc_id] = live_.size();
  live_.push_back(doc_id);
}

void CatalogModel::RemoveDoc(uint64_t doc_id) {
  auto it = docs_.find(doc_id);
  if (it == docs_.end()) return;
  for (const Product& p : it->second) {
    auto n = by_name_.find(p.name);
    if (n == by_name_.end()) continue;
    std::erase_if(n->second, [&](const Hit& h) { return h.doc_id == doc_id; });
    if (n->second.empty()) by_name_.erase(n);
  }
  docs_.erase(it);
  size_t pos = live_pos_.at(doc_id);
  live_pos_[live_.back()] = pos;
  live_[pos] = live_.back();
  live_.pop_back();
  live_pos_.erase(doc_id);
}

void CatalogModel::SetPrice(uint64_t doc_id, size_t index, std::string price) {
  docs_.at(doc_id)[index].price = std::move(price);
}

std::vector<CatalogModel::Hit> CatalogModel::Lookup(
    const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? std::vector<Hit>{} : it->second;
}

CatalogModel::Hit CatalogModel::RandomProduct(xdb::Random* rng) const {
  uint64_t doc = RandomDoc(rng);
  return Hit{doc, static_cast<size_t>(rng->Uniform(docs_.at(doc).size()))};
}

std::vector<uint64_t> CatalogModel::DocIds() const {
  std::vector<uint64_t> ids = live_;
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace bench_e2e
