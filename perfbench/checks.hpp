// Output checkers of the end-to-end benchmark. Each one recomputes a
// property of the scheduler's output from the platform description
// alone — none calls back into the solver whose output it judges — and
// returns an empty string when the property holds, or a one-line
// description of the first violation.
#pragma once

#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "platform/platform.hpp"

namespace perfbench {

/// Per-cluster capacities read from the platform's text form (the
/// `cluster <speed> <gateway_bw> <router> <name>` lines), so the serve
/// checks do not depend on the program's own parser.
struct ClusterCaps {
  double speed = 0.0;
  double gateway = 0.0;
};
[[nodiscard]] std::vector<ClusterCaps> parse_cluster_caps(const std::string& text);

/// Serve-side capacity bounds on one rate assignment: the loads homed on
/// cluster k drain at most s_k + g_k together (local compute plus
/// everything the gateway can ship out), and all loads together drain
/// at most sum_k s_k. `home[i]` is the home cluster of the load with
/// rate `rate[i]`; the slack is `rel_tol` times the larger of the bound
/// and the platform's largest s_k + g_k, since LP feasibility
/// tolerances scale with the model's largest right-hand side.
[[nodiscard]] std::string check_rate_bounds(const std::vector<ClusterCaps>& caps,
                                            const std::vector<int>& home,
                                            const std::vector<double>& rate,
                                            double rel_tol);

/// Work conservation: the residual the benchmark integrated from the
/// rates it read matches the residual the program reports, within
/// `abs_tol + rel_tol * load`.
[[nodiscard]] std::string check_residual(double integrated, double reported,
                                         double load, double rel_tol,
                                         double abs_tol);

/// Feasibility of an offline allocation under the paper's program (7):
/// cluster speed (sum_k alpha(k,l) <= s_l), gateway (outgoing + incoming
/// remote load <= g_k), per-connection bandwidth (alpha(k,l) <=
/// beta(k,l) * min bw over the route), link max-connect (sum of betas of
/// the routes through a link <= its budget) and integral betas. Remote
/// load needs an installed route.
[[nodiscard]] std::string check_allocation(const dls::platform::Platform& plat,
                                           const dls::core::Allocation& alloc,
                                           double rel_tol);

/// The Sum objective sum_k payoff_k * sum_l alpha(k,l), recomputed from
/// an allocation.
[[nodiscard]] double sum_objective(const std::vector<double>& payoffs,
                                   const dls::core::Allocation& alloc);

/// |a - b| <= rel_tol * max(|a|, |b|, 1e-12); `what` names the pair.
[[nodiscard]] std::string check_close(double a, double b, double rel_tol,
                                      const std::string& what);

/// The offline ordering g <= lp and lpr <= lprg <= lp, each with
/// `rel_tol` slack relative to lp.
[[nodiscard]] std::string check_ordering(double g, double lpr, double lprg,
                                         double lp, double rel_tol);

}  // namespace perfbench
