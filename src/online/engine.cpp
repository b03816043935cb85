#include "online/engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>

#include "core/schedule.hpp"
#include "dynamics/dynamic_platform.hpp"

namespace dls::online {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

OnlineEngine::OnlineEngine(const platform::Platform& plat, OnlineOptions options)
    : plat_(&plat), options_(options) {
  require(plat.num_clusters() >= 1, "OnlineEngine: platform has no clusters");
  require(options_.sim_periods >= 1, "OnlineEngine: sim_periods must be >= 1");
  require(options_.load_eps > 0.0, "OnlineEngine: load_eps must be positive");
}

OnlineReport OnlineEngine::run(const Workload& workload) const {
  return run(workload, dynamics::EventTrace{});
}

OnlineReport OnlineEngine::run(const Workload& workload,
                               const dynamics::EventTrace& trace) const {
  const int n = plat_->num_clusters();
  workload.validate(n);
  trace.validate(*plat_);
  for (const AppArrival& a : workload.arrivals)
    require(a.load > options_.load_eps,
            "OnlineEngine: application loads must exceed load_eps");

  OnlineReport report;
  report.arrivals = workload.size();
  report.apps.reserve(workload.arrivals.size());
  for (std::size_t i = 0; i < workload.arrivals.size(); ++i) {
    const AppArrival& a = workload.arrivals[i];
    AppRecord rec;
    rec.id = static_cast<int>(i);
    rec.cluster = a.cluster;
    rec.payoff = a.payoff;
    rec.load = a.load;
    rec.arrival = a.time;
    report.apps.push_back(rec);
  }

  // The replay mutates a private platform copy; the rescheduler and the
  // simulated rate model read it through this stable reference.
  dynamics::DynamicPlatform dyn(*plat_);
  const platform::Platform& plat = dyn.plat();

  double total_speed = 0.0;
  for (int k = 0; k < n; ++k) total_speed += plat.cluster(k).speed;

  AdaptiveRescheduler scheduler(plat, options_.sched);
  std::optional<core::SteadyStateProblem> sim_base;
  sim::SimOptions sim_options;
  sim_options.policy = options_.sim_policy;
  sim_options.periods = options_.sim_periods;
  sim_options.window_units = options_.sim_window_units;
  sim_options.warmup_periods = 1;

  std::vector<int> active(n, -1);          // app id hosted by each cluster
  std::vector<std::deque<int>> queue(n);   // waiting app ids, FIFO
  std::vector<double> payoffs(n, 0.0);
  std::vector<double> remaining(workload.arrivals.size(), 0.0);
  std::vector<double> rate(n, 0.0);        // drain rate of each active app
  std::vector<double> weighted_rates;      // scratch for the fairness metric
  int num_active = 0;
  double now = 0.0;
  std::size_t next_arrival = 0;
  std::size_t next_event = 0;

  const auto admit = [&](int app, double at) {
    const int c = report.apps[app].cluster;
    DLS_ASSERT(active[c] < 0);
    active[c] = app;
    payoffs[c] = report.apps[app].payoff;
    remaining[app] = report.apps[app].load;
    report.apps[app].admit = at;
    ++num_active;
  };

  // Re-solves the steady state for the current payoff vector and refreshes
  // every active application's drain rate.
  const auto reschedule = [&] {
    std::fill(rate.begin(), rate.end(), 0.0);
    if (num_active == 0) return;
    const Reschedule r = scheduler.reschedule(payoffs);
    ++report.reschedules;
    if (r.warm) {
      ++report.warm_solves;
      report.repaired_solves += r.repaired;
      report.warm_seconds += r.seconds;
    } else {
      ++report.cold_solves;
      report.cold_seconds += r.seconds;
    }
    if (options_.rate_model == RateModel::Fluid) {
      for (int c = 0; c < n; ++c)
        if (active[c] >= 0) rate[c] = r.allocation.total_alpha(c);
      return;
    }
    // Simulated: play a schedule segment and adopt achieved throughputs.
    // The route table is payoff-independent: build it once, re-payoff it
    // per event (with_payoffs is O(K); a fresh problem is O(K^2 + links)).
    if (!sim_base) sim_base.emplace(plat, payoffs, options_.sched.objective);
    const core::SteadyStateProblem problem = sim_base->with_payoffs(payoffs);
    const auto schedule = core::build_periodic_schedule(problem, r.allocation);
    const auto sim = sim::simulate_schedule(problem, schedule, sim_options);
    for (int c = 0; c < n; ++c)
      if (active[c] >= 0) rate[c] = sim.throughput[c];
  };

  // Churn kill: an application whose home cluster left the platform.
  const auto abort_app = [&](int app) {
    AppRecord& rec = report.apps[app];
    rec.depart = now;
    rec.outcome = AppOutcome::AbortedChurn;
    ++report.aborted;
  };

  while (next_arrival < workload.arrivals.size() || num_active > 0) {
    // Next event: first unprocessed arrival vs earliest projected drain
    // vs next platform event.
    const double t_arrival = next_arrival < workload.arrivals.size()
                                 ? workload.arrivals[next_arrival].time
                                 : kInf;
    const double t_platform = next_event < trace.events.size()
                                  ? trace.events[next_event].time
                                  : kInf;
    double t_drain = kInf;
    for (int c = 0; c < n; ++c) {
      if (active[c] < 0 || rate[c] <= 0.0) continue;
      t_drain = std::min(t_drain, now + remaining[active[c]] / rate[c]);
    }
    double t_next = std::min({t_arrival, t_drain, t_platform});
    require(std::isfinite(t_next),
            "online engine stalled: active applications but no draining rate "
            "and no arrivals or platform events pending");
    t_next = std::max(t_next, now);  // projected drains cannot move time back

    // Drain the interval [now, t_next) at the rates that held over it,
    // and fold it into the time-weighted metrics.
    const double dt = t_next - now;
    if (dt > 0.0) {
      double work_rate = 0.0;
      weighted_rates.clear();
      for (int c = 0; c < n; ++c) {
        if (active[c] < 0) continue;
        work_rate += rate[c];
        weighted_rates.push_back(payoffs[c] * rate[c]);
        remaining[active[c]] -= rate[c] * dt;
        report.total_work += rate[c] * dt;
      }
      report.metrics.record_interval(dt, work_rate, total_speed, weighted_rates);
    }
    now = t_next;

    bool support_changed = false;
    // Departures due now (drain rounding can leave a sliver below eps).
    for (int c = 0; c < n; ++c) {
      const int app = active[c];
      if (app < 0 || remaining[app] > options_.load_eps) continue;
      AppRecord& rec = report.apps[app];
      rec.depart = now;
      rec.outcome = AppOutcome::Completed;
      rec.slowdown = plat.cluster(c).speed > 0.0
                         ? rec.response() / (rec.load / plat.cluster(c).speed)
                         : 0.0;
      report.metrics.record_completion(rec);
      ++report.completed;
      report.makespan = now;
      active[c] = -1;
      payoffs[c] = 0.0;
      --num_active;
      support_changed = true;
      if (!queue[c].empty()) {  // FIFO hand-over to the next waiting app
        const int heir = queue[c].front();
        queue[c].pop_front();
        admit(heir, now);
      }
    }
    // Platform events due now: mutate the platform copy, fold the change
    // scopes, and let churn kill the affected applications.
    dynamics::ChangeScope scope = dynamics::ChangeScope::None;
    while (next_event < trace.events.size() &&
           trace.events[next_event].time <= now) {
      const dynamics::PlatformEvent& ev = trace.events[next_event++];
      scope = merge_scope(scope, dyn.apply(ev));
      ++report.platform_events;
      if (ev.kind == dynamics::EventKind::ClusterLeave) {
        const int c = ev.target;
        if (active[c] >= 0) {
          abort_app(active[c]);
          active[c] = -1;
          payoffs[c] = 0.0;
          --num_active;
          support_changed = true;
        }
        for (int app : queue[c]) abort_app(app);
        queue[c].clear();
      }
    }
    bool platform_changed = false;
    if (scope != dynamics::ChangeScope::None) {
      platform_changed = true;
      if (scope == dynamics::ChangeScope::Capacity) {
        scheduler.platform_capacity_changed();
      } else {
        scheduler.platform_topology_changed();
      }
      sim_base.reset();  // its cached route table is stale
      total_speed = 0.0;
      for (int k = 0; k < n; ++k) total_speed += plat.cluster(k).speed;
    }
    // Arrivals due now.
    while (next_arrival < workload.arrivals.size() &&
           workload.arrivals[next_arrival].time <= now) {
      const int app = static_cast<int>(next_arrival++);
      const int c = report.apps[app].cluster;
      if (!dyn.cluster_present(c)) {
        report.apps[app].outcome = AppOutcome::RejectedChurn;
        ++report.rejected;
      } else if (active[c] < 0) {
        admit(app, now);
        support_changed = true;
      } else {
        queue[c].push_back(app);
        ++report.queued_arrivals;
        report.peak_queued =
            std::max(report.peak_queued, static_cast<int>(queue[c].size()));
      }
    }
    report.peak_active = std::max(report.peak_active, num_active);

    if (support_changed || platform_changed) reschedule();
  }

  return report;
}

}  // namespace dls::online
