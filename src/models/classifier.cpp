#include "models/classifier.h"

#include <algorithm>
#include <numeric>

namespace prepare {

namespace {

std::vector<std::size_t> by_impact(std::span<const double> impacts) {
  std::vector<std::size_t> order(impacts.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return impacts[a] > impacts[b];
                   });
  return order;
}

}  // namespace

std::vector<std::size_t> Classifier::ranked_attributes(
    const Classification& c) {
  return by_impact(c.impacts);
}

std::vector<std::size_t> Classifier::attribution_ranking(
    std::span<const double> impacts, std::size_t limit) {
  auto order = by_impact(impacts);
  std::size_t keep = 0;
  while (keep < std::min(limit, order.size()) && impacts[order[keep]] > 0.0)
    ++keep;
  order.resize(keep);
  return order;
}

}  // namespace prepare
