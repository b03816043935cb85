#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace dls::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Serve-level lifecycle series. Solver and rescheduler internals are
// counted one layer down (lp/, online/); these cover what the daemon
// itself decides: admission outcomes and load lifecycles.
/// Response-time buckets (virtual seconds). Loads drain over fluid
/// schedules, so responses span replay pacing, not network latency:
/// a decade-and-thirds ladder up to 10^4 keeps every realistic trace
/// inside the finite buckets.
const std::vector<double>& response_buckets() {
  static const std::vector<double> buckets = {0.1,  0.3,   1.0,   3.0,
                                              10.0, 30.0,  100.0, 300.0,
                                              1e3,  3e3,   1e4};
  return buckets;
}

struct ServeObs {
  obs::Counter admitted, rej_overload, rej_absent, rej_draining;
  obs::Counter completed, cancelled, aborted;
  obs::Histogram resp_completed, resp_cancelled, resp_aborted;
  obs::Gauge active;
  ServeObs() {
    auto& reg = obs::registry();
    const std::string arr = "dls_serve_arrivals_total";
    const std::string arr_help = "Arrival requests by admission outcome";
    admitted = reg.counter(arr, arr_help, "outcome=\"admitted\"");
    rej_overload = reg.counter(arr, arr_help, "outcome=\"rejected_overload\"");
    rej_absent = reg.counter(arr, arr_help, "outcome=\"rejected_absent\"");
    rej_draining = reg.counter(arr, arr_help, "outcome=\"rejected_draining\"");
    const std::string dep = "dls_serve_departures_total";
    const std::string dep_help = "Load departures by reason";
    completed = reg.counter(dep, dep_help, "reason=\"completed\"");
    cancelled = reg.counter(dep, dep_help, "reason=\"cancelled\"");
    aborted = reg.counter(dep, dep_help, "reason=\"aborted_churn\"");
    const std::string resp = "dls_serve_response_seconds";
    const std::string resp_help =
        "Load response time (virtual seconds, arrival to departure) by outcome";
    resp_completed =
        reg.histogram(resp, resp_help, response_buckets(), "outcome=\"completed\"");
    resp_cancelled =
        reg.histogram(resp, resp_help, response_buckets(), "outcome=\"cancelled\"");
    resp_aborted = reg.histogram(resp, resp_help, response_buckets(),
                                 "outcome=\"aborted_churn\"");
    active = reg.gauge("dls_serve_active_loads", "Loads currently draining");
  }
};

ServeObs& serve_obs() {
  static ServeObs handles;
  return handles;
}

}  // namespace

const char* to_string(Admit a) {
  switch (a) {
    case Admit::Admitted: return "admitted";
    case Admit::RejectedOverload: return "rejected_overload";
    case Admit::RejectedAbsent: return "rejected_absent";
    case Admit::RejectedDraining: return "rejected_draining";
  }
  return "?";
}

ServeEngine::ServeEngine(platform::Platform base, EngineOptions options)
    : options_(options),
      dyn_(std::move(base)),
      scheduler_(dyn_.plat(), options.sched) {
  require(options_.max_loads >= 0, "serve: max_loads cannot be negative");
  require(options_.load_eps > 0.0, "serve: load_eps must be positive");
  refresh_total_speed();
}

void ServeEngine::refresh_total_speed() {
  total_speed_ = 0.0;
  for (int k = 0; k < dyn_.plat().num_clusters(); ++k)
    total_speed_ += dyn_.plat().cluster(k).speed;
}

double Replay::next_time() const {
  double t = kInf;
  if (next_arrival < arrivals.size()) t = arrivals[next_arrival].time;
  if (next_event < events.size()) t = std::min(t, events[next_event].time);
  return t;
}

void ServeEngine::reschedule() {
  for (int app : active_ids_) rate_[app] = 0.0;
  if (active_ids_.empty()) {
    serve_obs().active.set(0.0);
    return;
  }
  loads_scratch_.clear();
  for (int app : active_ids_)
    loads_scratch_.push_back({app, apps_[app].cluster, apps_[app].payoff});
  const online::MultiReschedule r = scheduler_.reschedule(loads_scratch_);
  ++counters_.reschedules;
  if (r.warm) {
    ++counters_.warm_solves;
    counters_.repaired_solves += r.repaired;
    counters_.warm_seconds += r.seconds;
  } else {
    ++counters_.cold_solves;
    counters_.cold_seconds += r.seconds;
  }
  for (std::size_t i = 0; i < active_ids_.size(); ++i)
    rate_[active_ids_[i]] = r.rate[i];
  serve_obs().active.set(static_cast<double>(active_ids_.size()));
  obs::trace("serve.reschedule",
             "loads=" + std::to_string(active_ids_.size()) +
                 " start=" + (r.warm ? (r.repaired ? "repaired" : "warm")
                                     : "cold") +
                 " objective=" + std::to_string(r.objective));
}

double ServeEngine::next_completion() const {
  double t = kInf;
  for (int app : active_ids_) {
    if (rate_[app] <= 0.0) continue;
    t = std::min(t, now_ + remaining_[app] / rate_[app]);
  }
  return t;
}

void ServeEngine::drain_interval(double vt) {
  const double dt = vt - now_;
  if (dt > 0.0) {
    double work_rate = 0.0;
    weighted_rates_scratch_.clear();
    for (int app : active_ids_) {
      work_rate += rate_[app];
      weighted_rates_scratch_.push_back(apps_[app].payoff * rate_[app]);
      remaining_[app] -= rate_[app] * dt;
      counters_.total_work += rate_[app] * dt;
    }
    metrics_.record_interval(dt, work_rate, total_speed_,
                             weighted_rates_scratch_);
  }
  now_ = std::max(now_, vt);
}

bool ServeEngine::complete_due() {
  bool changed = false;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < active_ids_.size(); ++i) {
    const int app = active_ids_[i];
    // Due when drained to within load_eps, or when the projected finish
    // rounds to now_: at large virtual times remaining/rate can fall
    // below half an ulp of now_, and such a load would never drain.
    const double rem = remaining_[app];
    if (rem > options_.load_eps &&
        !(rate_[app] > 0.0 && now_ + rem / rate_[app] <= now_)) {
      active_ids_[keep++] = app;
      continue;
    }
    online::AppRecord& rec = apps_[app];
    rec.depart = now_;
    rec.outcome = online::AppOutcome::Completed;
    const double speed = dyn_.plat().cluster(rec.cluster).speed;
    rec.slowdown = speed > 0.0 ? rec.response() / (rec.load / speed) : 0.0;
    metrics_.record_completion(rec);
    ++counters_.completed;
    counters_.makespan = now_;
    serve_obs().completed.inc();
    serve_obs().resp_completed.observe(rec.response());
    obs::trace("serve.complete", "id=" + std::to_string(app) +
                                     " response=" +
                                     std::to_string(rec.response()));
    changed = true;
  }
  active_ids_.resize(keep);
  return changed;
}

void ServeEngine::advance_to(double vt) {
  for (;;) {
    const double t_drain = next_completion();
    if (!std::isfinite(t_drain) || !(t_drain <= vt)) break;
    drain_interval(t_drain);
    if (complete_due()) reschedule();
  }
  drain_interval(vt);
}

void ServeEngine::check_arrival(int cluster, double payoff, double load) const {
  require(cluster >= 0 && cluster < dyn_.plat().num_clusters(),
          "serve: arrival cluster out of range");
  require(payoff > 0.0, "serve: arrival payoff must be positive");
  require(load > options_.load_eps, "serve: arrival load must exceed load_eps");
}

ServeEngine::ArriveResult ServeEngine::admit(double vt, int cluster,
                                             double payoff, double load,
                                             std::string name) {
  ++counters_.arrivals;
  ArriveResult out;
  if (draining_) {
    out.admit = Admit::RejectedDraining;
    ++counters_.rejected_draining;
    serve_obs().rej_draining.inc();
  } else if (!dyn_.cluster_present(cluster)) {
    out.admit = Admit::RejectedAbsent;
    ++counters_.rejected_absent;
    serve_obs().rej_absent.inc();
  } else if (options_.max_loads > 0 &&
             active_count() >= options_.max_loads) {
    out.admit = Admit::RejectedOverload;
    ++counters_.rejected_overload;
    serve_obs().rej_overload.inc();
  } else {
    out.admit = Admit::Admitted;
    out.id = static_cast<int>(apps_.size());
    online::AppRecord rec;
    rec.id = out.id;
    rec.cluster = cluster;
    rec.payoff = payoff;
    rec.load = load;
    rec.arrival = vt;
    rec.admit = vt;
    apps_.push_back(rec);
    names_.push_back(std::move(name));
    remaining_.push_back(load);
    rate_.push_back(0.0);
    active_ids_.push_back(out.id);
    ++counters_.admitted;
    serve_obs().admitted.inc();
    counters_.peak_active = std::max(counters_.peak_active, active_count());
  }
  obs::trace("serve.arrive",
             "cluster=" + std::to_string(cluster) + " load=" +
                 std::to_string(load) + " outcome=" + to_string(out.admit));
  return out;
}

ServeEngine::ArriveResult ServeEngine::arrive(double vt, int cluster,
                                              double payoff, double load,
                                              std::string name) {
  check_arrival(cluster, payoff, load);
  advance_to(vt);
  const ArriveResult out = admit(vt, cluster, payoff, load, std::move(name));
  if (out.admit == Admit::Admitted) reschedule();
  return out;
}

bool ServeEngine::depart(double vt, int id) {
  advance_to(vt);
  const auto it = std::find(active_ids_.begin(), active_ids_.end(), id);
  if (it == active_ids_.end()) return false;
  active_ids_.erase(it);
  online::AppRecord& rec = apps_[id];
  rec.depart = vt;
  rec.outcome = online::AppOutcome::Cancelled;
  ++counters_.cancelled;
  serve_obs().cancelled.inc();
  serve_obs().resp_cancelled.observe(rec.response());
  obs::trace("serve.cancel", "id=" + std::to_string(id));
  reschedule();
  return true;
}

dynamics::ChangeScope ServeEngine::mutate_platform(
    const dynamics::PlatformEvent& ev, bool& support_changed) {
  const dynamics::ChangeScope scope = dyn_.apply(ev);
  ++counters_.platform_events;
  obs::trace("serve.platform_event",
             std::string(dynamics::to_string(ev.kind)) + " target=" +
                 std::to_string(ev.target) + " scope=" +
                 dynamics::to_string(scope));
  if (ev.kind != dynamics::EventKind::ClusterLeave) return scope;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < active_ids_.size(); ++i) {
    const int app = active_ids_[i];
    if (apps_[app].cluster != ev.target) {
      active_ids_[keep++] = app;
      continue;
    }
    online::AppRecord& rec = apps_[app];
    rec.depart = now_;
    rec.outcome = online::AppOutcome::AbortedChurn;
    ++counters_.aborted_churn;
    serve_obs().aborted.inc();
    serve_obs().resp_aborted.observe(rec.response());
    support_changed = true;
  }
  active_ids_.resize(keep);
  return scope;
}

void ServeEngine::platform_changed(dynamics::ChangeScope scope) {
  if (scope == dynamics::ChangeScope::Capacity) {
    scheduler_.platform_capacity_changed();
  } else {
    scheduler_.platform_topology_changed();
  }
  refresh_total_speed();
}

dynamics::ChangeScope ServeEngine::apply_event(double vt,
                                               const dynamics::PlatformEvent& ev) {
  advance_to(vt);
  bool changed = false;
  const dynamics::ChangeScope scope = mutate_platform(ev, changed);
  if (scope != dynamics::ChangeScope::None) {
    platform_changed(scope);
    changed = true;
  }
  if (changed) reschedule();
  return scope;
}

bool ServeEngine::replay_step(Replay& replay, double budget) {
  const double t = std::min(replay.next_time(), next_completion());
  // Note infinity <= infinity: an explicit finiteness check, or an idle
  // replay under an unlimited budget would advance to +inf.
  if (!std::isfinite(t) || !(t <= budget)) return false;
  drain_interval(t);
  bool changed = complete_due();
  dynamics::ChangeScope scope = dynamics::ChangeScope::None;
  for (; replay.next_event < replay.events.size() &&
         replay.events[replay.next_event].time <= now_;
       ++replay.next_event)
    scope = merge_scope(scope,
                        mutate_platform(replay.events[replay.next_event], changed));
  if (scope != dynamics::ChangeScope::None) {
    platform_changed(scope);
    changed = true;
  }
  for (; replay.next_arrival < replay.arrivals.size() &&
         replay.arrivals[replay.next_arrival].time <= now_;
       ++replay.next_arrival) {
    const online::AppArrival& a = replay.arrivals[replay.next_arrival];
    check_arrival(a.cluster, a.payoff, a.load);
    if (admit(a.time, a.cluster, a.payoff, a.load, a.name).admit ==
        Admit::Admitted)
      changed = true;
  }
  if (changed) reschedule();
  return true;
}

}  // namespace dls::serve
