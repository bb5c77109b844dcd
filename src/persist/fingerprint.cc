#include "persist/fingerprint.h"

#include <cstring>

#include "common/hash.h"

namespace her {
namespace {

uint64_t HashU64(uint64_t v, uint64_t seed) {
  return HashBytes(&v, sizeof v, seed);
}

uint64_t HashDoubleBits(double v, uint64_t seed) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return HashU64(bits, seed);
}

}  // namespace

uint64_t FingerprintGraph(const Graph& g, uint64_t seed) {
  uint64_t h = HashU64(g.num_vertices(), seed);
  h = HashU64(g.num_edges(), h);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::string_view label = g.label(v);
    h = HashBytes(label.data(), label.size(), h);
    for (const Edge& e : g.OutEdges(v)) {
      h = HashU64(e.dst, h);
      const std::string& name = g.EdgeLabelName(e.label);
      h = HashBytes(name.data(), name.size(), h);
    }
  }
  return h;
}

uint64_t FingerprintSetup(const Graph& gd, const Graph& g,
                          const SimulationParams& params, uint64_t seed) {
  uint64_t h = FingerprintGraph(gd);
  h = FingerprintGraph(g, h);
  h = HashDoubleBits(params.sigma, h);
  h = HashDoubleBits(params.delta, h);
  h = HashU64(static_cast<uint64_t>(params.k), h);
  h = HashU64(seed, h);
  return h;
}

}  // namespace her
