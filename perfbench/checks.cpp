#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

bool within(double value, double bound, double rel_tol) {
  return value <= bound + rel_tol * std::max(std::abs(bound), 1.0);
}

}  // namespace

std::vector<ClusterCaps> parse_cluster_caps(const std::string& text) {
  std::vector<ClusterCaps> caps;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string kind;
    if (!(words >> kind) || kind != "cluster") continue;
    ClusterCaps c;
    if (words >> c.speed >> c.gateway) caps.push_back(c);
  }
  return caps;
}

std::string check_rate_bounds(const std::vector<ClusterCaps>& caps,
                              const std::vector<int>& home,
                              const std::vector<double>& rate, double rel_tol) {
  if (home.size() != rate.size()) return "rate/home length mismatch";
  // Slack relative to the platform's capacity scale, not to each bound:
  // the solver accepts a violation of feas_tol times the largest
  // right-hand side on every row a bound sums.
  double scale = 0.0;
  for (const ClusterCaps& c : caps) scale = std::max(scale, c.speed + c.gateway);
  const auto fits = [&](double value, double bound) {
    return value <= bound + rel_tol * std::max(bound, scale);
  };
  std::vector<double> homed(caps.size(), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < rate.size(); ++i) {
    if (home[i] < 0 || home[i] >= static_cast<int>(caps.size()))
      return "load homed on unknown cluster " + std::to_string(home[i]);
    if (!(rate[i] >= 0.0) || !std::isfinite(rate[i]))
      return "load " + std::to_string(i) + " has rate " + fmt(rate[i]);
    homed[home[i]] += rate[i];
    total += rate[i];
  }
  double speed_sum = 0.0;
  for (std::size_t k = 0; k < caps.size(); ++k) {
    speed_sum += caps[k].speed;
    const double bound = caps[k].speed + caps[k].gateway;
    if (!fits(homed[k], bound))
      return "loads homed on cluster " + std::to_string(k) + " drain " +
             fmt(homed[k]) + " > s_k + g_k = " + fmt(bound);
  }
  if (!fits(total, speed_sum))
    return "all loads drain " + fmt(total) + " > sum of speeds " + fmt(speed_sum);
  return {};
}

std::string check_residual(double integrated, double reported, double load,
                           double rel_tol, double abs_tol) {
  if (std::abs(integrated - reported) <= abs_tol + rel_tol * std::abs(load))
    return {};
  return "residual " + fmt(reported) + " reported, " + fmt(integrated) +
         " integrated from the rates";
}

std::string check_allocation(const dls::platform::Platform& plat,
                             const dls::core::Allocation& alloc, double rel_tol) {
  const int n = plat.num_clusters();
  if (alloc.num_clusters() != n) return "allocation size mismatch";
  std::vector<double> link_beta(plat.num_links(), 0.0);
  for (int k = 0; k < n; ++k) {
    double outgoing = 0.0, incoming = 0.0, computed = 0.0;
    for (int l = 0; l < n; ++l) {
      const double a = alloc.alpha(k, l), b = alloc.beta(k, l);
      if (a < -rel_tol || b < -rel_tol)
        return "negative alpha/beta at (" + std::to_string(k) + "," +
               std::to_string(l) + ")";
      if (std::abs(b - std::round(b)) > 1e-6)
        return "beta(" + std::to_string(k) + "," + std::to_string(l) +
               ") = " + fmt(b) + " is not integral";
      computed += alloc.alpha(l, k);
      if (l == k) continue;
      outgoing += a;
      incoming += alloc.alpha(l, k);
      if (a <= 0.0 && b <= 0.0) continue;
      if (!plat.has_route(k, l))
        return "load sent from " + std::to_string(k) + " to " +
               std::to_string(l) + " without a route";
      const auto route = plat.route(k, l);
      if (route.empty()) continue;
      double pbw = std::numeric_limits<double>::infinity();
      for (const int i : route) {
        pbw = std::min(pbw, plat.link(i).bw);
        link_beta[i] += b;
      }
      if (!within(a, b * pbw, rel_tol))
        return "alpha(" + std::to_string(k) + "," + std::to_string(l) +
               ") = " + fmt(a) + " exceeds beta * bw = " + fmt(b * pbw);
    }
    if (!within(computed, plat.cluster(k).speed, rel_tol))
      return "cluster " + std::to_string(k) + " computes " + fmt(computed) +
             " > speed " + fmt(plat.cluster(k).speed);
    if (!within(outgoing + incoming, plat.cluster(k).gateway_bw, rel_tol))
      return "gateway " + std::to_string(k) + " carries " +
             fmt(outgoing + incoming) + " > g_k " +
             fmt(plat.cluster(k).gateway_bw);
  }
  for (int i = 0; i < plat.num_links(); ++i) {
    if (link_beta[i] > plat.link(i).max_connections + 1e-6)
      return "link " + std::to_string(i) + " opens " + fmt(link_beta[i]) +
             " connections > max-connect " +
             std::to_string(plat.link(i).max_connections);
  }
  return {};
}

double sum_objective(const std::vector<double>& payoffs,
                     const dls::core::Allocation& alloc) {
  double total = 0.0;
  for (int k = 0; k < alloc.num_clusters(); ++k) {
    double alpha = 0.0;
    for (int l = 0; l < alloc.num_clusters(); ++l) alpha += alloc.alpha(k, l);
    total += payoffs[k] * alpha;
  }
  return total;
}

std::string check_close(double a, double b, double rel_tol,
                        const std::string& what) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-12});
  if (std::abs(a - b) <= rel_tol * scale) return {};
  return what + ": " + fmt(a) + " vs " + fmt(b);
}

std::string check_ordering(double g, double lpr, double lprg, double lp,
                           double rel_tol) {
  const double slack = rel_tol * std::max(std::abs(lp), 1e-12);
  if (!(g <= lp + slack)) return "G " + fmt(g) + " above LP " + fmt(lp);
  if (!(lpr <= lprg + slack)) return "LPR " + fmt(lpr) + " above LPRG " + fmt(lprg);
  if (!(lprg <= lp + slack)) return "LPRG " + fmt(lprg) + " above LP " + fmt(lp);
  return {};
}

}  // namespace perfbench
