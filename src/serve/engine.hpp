// The multi-load event engine: every active load is a column block of
// one shared steady-state LP (online::MultiLoadRescheduler), loads drain
// at their fluid rates between events, and completions fire at their
// exact drain times. It is the only implementation of these semantics:
// `dls online --loads` replays a recorded workload through it, the
// daemon (daemon.hpp) feeds it replayed traces and client requests, and
// tests drive it directly.
//
// Virtual time is the engine's only clock. advance_to(vt) drains loads
// and fires completions up to vt; arrive/depart/apply_event stamp their
// mutation at the vt the caller supplies (the daemon maps wall clock to
// virtual time). Each of these calls ends with at most one solve.
// replay_step() batches instead: everything a recorded stream has due
// at one virtual time — completions, then platform events, then
// arrivals — is applied first and solved once. Because state changes
// only at call boundaries and every call is deterministic in (vt,
// arguments), an identical call sequence yields bit-identical counters
// — the property serve_smoke asserts across two replays.
//
// Admission control: a max-concurrent-loads budget plus a presence
// check (a load homed on a churned-out cluster is rejected). Each
// reject outcome is counted separately so an operator can tell
// overload from churn from shutdown.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dynamics/dynamic_platform.hpp"
#include "online/metrics.hpp"
#include "online/rescheduler.hpp"
#include "online/workload.hpp"
#include "platform/platform.hpp"

namespace dls::serve {

/// Outcome of an arrival request.
enum class Admit : unsigned char {
  Admitted,
  RejectedOverload,  ///< active set at the max_loads budget
  RejectedAbsent,    ///< home cluster churned out
  RejectedDraining,  ///< daemon is shutting down
};

[[nodiscard]] const char* to_string(Admit a);

struct EngineOptions {
  online::MultiReschedulerOptions sched;
  /// Admission budget: reject arrivals once this many loads are active.
  /// 0 means unlimited.
  int max_loads = 0;
  /// A load counts as drained when remaining <= load_eps (same epsilon
  /// as OnlineOptions), or when its projected finish rounds to the
  /// current virtual time.
  double load_eps = 1e-6;
};

/// Monotonic lifecycle counters, exported 1:1 as Prometheus series.
struct EngineCounters {
  std::uint64_t arrivals = 0;  ///< every arrive() call
  std::uint64_t admitted = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_absent = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;      ///< client depart requests honored
  std::uint64_t aborted_churn = 0;  ///< active when home cluster left
  std::uint64_t reschedules = 0;
  std::uint64_t warm_solves = 0;
  std::uint64_t cold_solves = 0;
  std::uint64_t repaired_solves = 0;
  std::uint64_t platform_events = 0;
  int peak_active = 0;
  double warm_seconds = 0.0;  ///< solver time of the warm solves
  double cold_seconds = 0.0;  ///< solver time of the cold solves
  double total_work = 0.0;    ///< load units drained (aborts drain partially)
  double makespan = 0.0;      ///< virtual time of the last completion
};

/// A recorded arrival stream and platform-event trace (both sorted by
/// time), with cursors to the first item not yet fed to the engine.
/// Holds references: the workload and trace must outlive it.
struct Replay {
  const std::vector<online::AppArrival>& arrivals;
  const std::vector<dynamics::PlatformEvent>& events;
  std::size_t next_arrival = 0;
  std::size_t next_event = 0;

  /// Time of the next unfed arrival or event; +inf when none is left.
  [[nodiscard]] double next_time() const;
  [[nodiscard]] std::size_t pending() const {
    return arrivals.size() - next_arrival + events.size() - next_event;
  }
  /// Drops every unfed item (a draining daemon stops the replay).
  void skip_rest() {
    next_arrival = arrivals.size();
    next_event = events.size();
  }
};

class ServeEngine {
public:
  ServeEngine(platform::Platform base, EngineOptions options);
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Drains active loads forward to virtual time vt, firing completions
  /// (and their reschedules) at their exact drain times. No-op when vt
  /// is in the past.
  void advance_to(double vt);

  /// Current virtual time (the latest vt any call reached).
  [[nodiscard]] double now() const { return now_; }

  /// Virtual time of the next completion under current rates, or +inf
  /// when nothing is draining. The daemon sleeps until then.
  [[nodiscard]] double next_completion() const;

  struct ArriveResult {
    Admit admit = Admit::RejectedOverload;
    int id = -1;  ///< app id when admitted
  };

  /// A load arrives at vt with `load` units homed on `cluster`,
  /// objective weight `payoff`. Throws dls::Error on invalid arguments
  /// (out-of-range cluster, non-positive payoff, load <= load_eps).
  ArriveResult arrive(double vt, int cluster, double payoff, double load,
                      std::string name = "");

  /// Client withdraws load `id` at vt. False when it is not active.
  bool depart(double vt, int id);

  /// Applies a platform event at vt: churn aborts affected loads, any
  /// capacity/topology change re-prices the shared LP.
  dynamics::ChangeScope apply_event(double vt, const dynamics::PlatformEvent& ev);

  /// Replays the earliest virtual time t that `replay` or a completion
  /// has due, when t <= budget: advances to t, applies every platform
  /// event due at t, admits every arrival due at t (in that order), and
  /// solves once if anything changed. False when nothing is due by the
  /// budget (an infinite budget replays to the end, one call per
  /// timestamp). Arrivals go through the same admission control as
  /// arrive(), stamped with their recorded times.
  bool replay_step(Replay& replay, double budget);

  /// Shutdown: every subsequent arrival is RejectedDraining; active
  /// loads keep draining.
  void begin_drain() { draining_ = true; }
  [[nodiscard]] bool draining() const { return draining_; }

  [[nodiscard]] int active_count() const {
    return static_cast<int>(active_ids_.size());
  }
  /// Active load ids in admission order (what GET /loads reports on).
  [[nodiscard]] const std::vector<int>& active_ids() const {
    return active_ids_;
  }
  /// Current fluid drain rate of load `id` (0 when not active).
  [[nodiscard]] double load_rate(int id) const {
    return rate_[static_cast<std::size_t>(id)];
  }
  /// Work units load `id` still has to drain.
  [[nodiscard]] double load_remaining(int id) const {
    return remaining_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const EngineCounters& counters() const { return counters_; }
  [[nodiscard]] const online::OnlineMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<online::AppRecord>& apps() const {
    return apps_;
  }
  [[nodiscard]] const std::string& app_name(int id) const {
    return names_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const platform::Platform& plat() const { return dyn_.plat(); }

private:
  // The mutators below change state without solving; each public call
  // ends with one reschedule() when one of them reports a change.

  /// One shared-LP solve over the current active set; updates rates and
  /// the solve counters. No-op when nothing is active.
  void reschedule();
  /// Advances the fluid drain over [now_, vt] without firing events.
  void drain_interval(double vt);
  /// Retires every due load at now_; true when any was.
  bool complete_due();
  /// Applies `ev` to the platform and aborts the loads of a leaving
  /// cluster (setting `support_changed`); returns the change scope.
  dynamics::ChangeScope mutate_platform(const dynamics::PlatformEvent& ev,
                                        bool& support_changed);
  /// Invalidates the scheduler's platform caches for `scope` (not None).
  void platform_changed(dynamics::ChangeScope scope);
  /// Throws dls::Error on arguments arrive() rejects.
  void check_arrival(int cluster, double payoff, double load) const;
  /// Counts an arrival at vt and runs admission control; an admitted
  /// load joins the active set (arrived and admitted at vt).
  ArriveResult admit(double vt, int cluster, double payoff, double load,
                     std::string name);
  void refresh_total_speed();

  EngineOptions options_;
  dynamics::DynamicPlatform dyn_;
  online::MultiLoadRescheduler scheduler_;
  double now_ = 0.0;
  double total_speed_ = 0.0;
  bool draining_ = false;

  std::vector<online::AppRecord> apps_;  ///< indexed by app id
  std::vector<std::string> names_;
  std::vector<double> remaining_;
  std::vector<double> rate_;
  std::vector<int> active_ids_;  ///< admission order

  EngineCounters counters_;
  online::OnlineMetrics metrics_;
  std::vector<online::ActiveLoad> loads_scratch_;
  std::vector<double> weighted_rates_scratch_;
};

}  // namespace dls::serve
