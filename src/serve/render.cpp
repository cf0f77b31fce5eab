#include "serve/render.hpp"

#include <algorithm>
#include <cstdio>

#include "mr/stats.hpp"

namespace gdiam::serve {
namespace {

/// printf into a std::string (the result blocks are a few hundred bytes).
template <typename... Args>
void appendf(std::string& out, const char* fmt, Args... args) {
  char buf[512];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n),
                                      sizeof buf - 1));
}

}  // namespace

std::string render_estimate(const core::DiameterApproxResult& r,
                            std::uint32_t tau) {
  std::string out;
  appendf(out, "estimate:      %.6g%s\n", r.estimate,
          r.quotient_exact ? " (conservative upper bound)" : "");
  appendf(out, "classic form:  %.6g  (Phi(G_C)=%.6g + 2R, R=%.6g)\n",
          r.estimate_classic, r.quotient_diam, r.radius);
  appendf(out, "clusters:      %u (tau=%u)\n", r.num_clusters, tau);
  appendf(out, "cost:          %s\n", mr::to_string(r.stats).c_str());
  return out;
}

std::string render_sssp(NodeId source, const sssp::DeltaSteppingResult& r) {
  std::string out;
  appendf(out, "source:        %u (Delta=%g, partitions=%u, processes=%u)\n",
          source, r.delta_used, r.partitions_used, r.processes_used);
  appendf(out, "eccentricity:  %.6g (farthest node %u)\n", r.eccentricity,
          r.farthest);
  appendf(out, "2-approx diam: %.6g\n", 2.0 * r.eccentricity);
  appendf(out, "cost:          %s\n", mr::to_string(r.stats).c_str());
  return out;
}

}  // namespace gdiam::serve
