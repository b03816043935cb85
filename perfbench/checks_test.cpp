// Self-test of the benchmark's output checkers: each must accept a
// valid input and reject a deliberately broken one. Exit code 0 when
// every case behaves, 1 otherwise.
#include <iostream>
#include <string>

#include "checks.hpp"
#include "core/allocation.hpp"
#include "platform/platform.hpp"

namespace {

int failures = 0;

void expect(bool accepted, const std::string& verdict, const std::string& name) {
  const bool ok = accepted ? verdict.empty() : !verdict.empty();
  std::cout << (ok ? "PASS " : "FAIL ") << name
            << (verdict.empty() ? "" : "  [" + verdict + "]") << "\n";
  if (!ok) ++failures;
}

// Two clusters on two routers joined by one link: bw 10 per connection,
// max-connect 2. s = 100, g = 50 on both sides.
dls::platform::Platform two_clusters() {
  dls::platform::Platform plat;
  const int r0 = plat.add_router("r0");
  const int r1 = plat.add_router("r1");
  plat.add_cluster(100.0, 50.0, r0, "c0");
  plat.add_cluster(100.0, 50.0, r1, "c1");
  plat.add_backbone(r0, r1, 10.0, 2, "l0");
  plat.compute_shortest_path_routes();
  return plat;
}

}  // namespace

int main() {
  using perfbench::ClusterCaps;
  const std::string text =
      "dls-platform 1\nrouters 1\nrouter 0 r\n"
      "cluster 100 50 0 a\ncluster 80 20 0 b\n";
  const auto caps = perfbench::parse_cluster_caps(text);
  expect(true,
         caps.size() == 2 && caps[1].speed == 80.0 && caps[1].gateway == 20.0
             ? std::string()
             : std::string("cluster lines misparsed"),
         "parse_cluster_caps reads speed and gateway");

  // Rate bounds: loads homed on cluster 1 may drain at most 80 + 20.
  expect(true, perfbench::check_rate_bounds(caps, {0, 1, 1}, {140.0, 30.0, 10.0}, 1e-9),
         "rate bounds accept rates within s_k + g_k");
  expect(false, perfbench::check_rate_bounds(caps, {0, 1, 1}, {140.0, 60.0, 40.5}, 1e-9),
         "rate bounds reject a rate pushed over s_k + g_k");
  expect(false, perfbench::check_rate_bounds(caps, {0, 0}, {150.0, 40.0}, 1e-9),
         "rate bounds reject rates over the sum of speeds");
  expect(false, perfbench::check_rate_bounds(caps, {0}, {-1.0}, 1e-9),
         "rate bounds reject a negative rate");

  // Residuals: 1e-9 relative to a load of 500 plus 1e-9 absolute.
  expect(true, perfbench::check_residual(120.0, 120.0 + 1e-8, 500.0, 1e-9, 1e-9),
         "residual accepts a match within tolerance");
  expect(false, perfbench::check_residual(120.0, 120.0 + 1e-5, 500.0, 1e-9, 1e-9),
         "residual rejects an offset beyond tolerance");

  const dls::platform::Platform plat = two_clusters();
  dls::core::Allocation good(2);
  good.set_alpha(0, 0, 100.0);
  good.set_alpha(1, 1, 80.0);
  good.set_alpha(1, 0, 0.0);
  good.set_alpha(0, 1, 20.0);  // 2 connections x bw 10
  good.set_beta(0, 1, 2.0);
  expect(true, perfbench::check_allocation(plat, good, 1e-9),
         "allocation check accepts a feasible allocation");

  dls::core::Allocation overfull = good;
  overfull.set_beta(0, 1, 3.0);  // link admits 2
  overfull.set_alpha(0, 1, 20.0);
  overfull.set_alpha(1, 1, 80.0);
  expect(false, perfbench::check_allocation(plat, overfull, 1e-9),
         "allocation check rejects a link's max-connect overfilled");

  dls::core::Allocation fast = good;
  fast.set_alpha(0, 1, 25.0);  // beyond 2 x 10
  expect(false, perfbench::check_allocation(plat, fast, 1e-9),
         "allocation check rejects a transfer beyond beta * bw");

  dls::core::Allocation fractional = good;
  fractional.set_beta(0, 1, 1.5);
  fractional.set_alpha(0, 1, 15.0);
  expect(false, perfbench::check_allocation(plat, fractional, 1e-9),
         "allocation check rejects a fractional beta");

  dls::core::Allocation busy = good;
  busy.set_alpha(1, 1, 90.0);  // cluster 1 computes 20 + 90 > 100
  expect(false, perfbench::check_allocation(plat, busy, 1e-9),
         "allocation check rejects a cluster over its speed");

  dls::core::Allocation gateway = good;
  gateway.set_beta(0, 1, 2.0);
  gateway.set_alpha(0, 1, 20.0);
  gateway.set_alpha(1, 0, 35.0);  // gateway of 0 carries 20 + 35 > 50
  gateway.set_beta(1, 0, 4.0);
  gateway.set_alpha(0, 0, 65.0);
  expect(false, perfbench::check_allocation(plat, gateway, 1e-9),
         "allocation check rejects a gateway over g_k");

  expect(true, perfbench::check_ordering(1.0, 1.5, 1.8, 2.0, 1e-9),
         "ordering accepts g, lpr <= lprg <= lp");
  expect(false, perfbench::check_ordering(1.0, 1.9, 1.8, 2.0, 1e-9),
         "ordering rejects lpr above lprg");
  expect(false, perfbench::check_ordering(2.1, 1.5, 1.8, 2.0, 1e-9),
         "ordering rejects g above lp");
  expect(true, perfbench::check_close(10.0, 10.0 + 1e-9, 1e-6, "objective"),
         "objective match accepts a relative difference within tolerance");
  expect(false, perfbench::check_close(10.0, 10.1, 1e-6, "objective"),
         "objective match rejects a relative difference of 1%");

  std::cout << (failures == 0 ? "all checker tests passed\n"
                              : std::to_string(failures) + " checker test(s) failed\n");
  return failures == 0 ? 0 : 1;
}
