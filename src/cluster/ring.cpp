#include "cluster/ring.h"

#include <algorithm>

#include "common/rng.h"

namespace s35::cluster {

// FNV-1a over the node name, then a splitmix64 finalizer per replica.
// FNV alone clusters similar strings ("host:7401" vs "host:7402"); the
// finalizer spreads the replicas uniformly, which the balance bound in
// test_ring depends on.
std::uint64_t HashRing::point_hash(const std::string& node, int replica) {
  const auto mix = SplitMix64::mix;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : node) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return mix(h ^ mix(static_cast<std::uint64_t>(replica) + 0x9E3779B97F4A7C15ull));
}

HashRing::HashRing(int vnodes) : vnodes_(vnodes < 1 ? 1 : vnodes) {}

void HashRing::add(const std::string& node) {
  if (node.empty() || contains(node)) return;
  points_.reserve(points_.size() + static_cast<std::size_t>(vnodes_));
  for (int r = 0; r < vnodes_; ++r)
    points_.emplace_back(point_hash(node, r), node);
  std::sort(points_.begin(), points_.end());
  ++members_;
}

void HashRing::remove(const std::string& node) {
  const std::size_t before = points_.size();
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [&](const auto& p) { return p.second == node; }),
                points_.end());
  if (points_.size() != before) --members_;
}

bool HashRing::contains(const std::string& node) const {
  return std::any_of(points_.begin(), points_.end(),
                     [&](const auto& p) { return p.second == node; });
}

std::string HashRing::owner(std::uint64_t key) const {
  if (points_.empty()) return {};
  auto it = std::upper_bound(points_.begin(), points_.end(),
                             std::make_pair(key, std::string()));
  if (it == points_.end()) it = points_.begin();  // wrap: the ring is a ring
  return it->second;
}

std::vector<std::string> HashRing::owners(std::uint64_t key, int count) const {
  std::vector<std::string> out;
  if (points_.empty() || count <= 0) return out;
  auto it = std::upper_bound(points_.begin(), points_.end(),
                             std::make_pair(key, std::string()));
  for (std::size_t seen = 0;
       seen < points_.size() && out.size() < static_cast<std::size_t>(count) &&
       out.size() < members_;
       ++seen, ++it) {
    if (it == points_.end()) it = points_.begin();
    if (std::find(out.begin(), out.end(), it->second) == out.end())
      out.push_back(it->second);
  }
  return out;
}

}  // namespace s35::cluster
