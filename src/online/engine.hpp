// The online workload engine: application lifecycle over a platform.
//
// Applications arrive (workload.hpp), are admitted — each cluster hosts
// at most one active application; later arrivals for a busy cluster wait
// in its FIFO queue — run at the steady-state rate the adaptive
// rescheduler (rescheduler.hpp) grants their home cluster, and depart
// when their total load has drained. Every admission or departure
// changes the payoff vector and triggers a reschedule; an arrival that
// merely joins a queue does not.
//
// This is the single-load engine (one application per cluster, rates
// from a per-app heuristic or the LP bound). The multi-load semantics —
// any number of concurrent loads per cluster as column blocks of one
// shared LP, no queues — live in serve::ServeEngine (src/serve/), which
// `dls online --loads` replays through.
//
// Event model: the engine advances from event to event (next arrival vs
// earliest projected drain). Unlike sim::SimEngine's lazily-invalidated
// calendar — where one completion perturbs only its connected component
// — a reschedule here changes *every* active application's rate at once,
// so a heap of projected finish times would be fully stale after each
// event. The engine therefore recomputes the earliest departure by
// scanning the <= K active applications, which is also O(K) but with no
// stale entries to skip.
//
// Progress: as long as any application is active, the solved allocation
// gives at least one of them a positive rate (granting an application
// its idle local speed always improves both objectives, so an all-zero
// optimum is impossible on platforms with positive cluster speeds), and
// each event admits or departs at least one application — the loop
// terminates after exactly 2 * |workload| lifecycle transitions. An
// individual application can still be starved for a while under
// Objective::Sum; it drains once enough competitors leave.
//
// Rate models: Fluid trusts the allocation (rate = total_alpha of the
// home cluster, the paper's steady-state reading). Simulated additionally
// reconstructs the periodic schedule after each reschedule and plays a
// short segment on the flow-level simulator (sim::simulate_schedule)
// under a chosen sharing policy, using the *achieved* throughputs as
// drain rates — bandwidth-sharing overruns then stretch response times
// instead of being invisible.
// Platform dynamics (run(workload, trace)): the event loop additionally
// merges a time-sorted stream of platform events (src/dynamics/). Each
// due event mutates a private DynamicPlatform copy through the
// incremental cache-updating mutators; the rescheduler is notified with
// the folded change scope (capacity events keep the warm capsule for a
// whole or repaired warm start, topology events force a cold solve) and
// every active application is re-rated. Cluster churn is destructive:
// a leaving cluster aborts its active and queued applications and
// rejects arrivals until it rejoins (so every replay terminates). An
// empty trace takes the exact same code path as run(workload) and
// reproduces its report bit for bit.
#pragma once

#include <vector>

#include "dynamics/events.hpp"
#include "online/metrics.hpp"
#include "online/rescheduler.hpp"
#include "online/workload.hpp"
#include "sim/simulator.hpp"

namespace dls::online {

enum class RateModel {
  Fluid,      ///< allocation rates verbatim
  Simulated,  ///< achieved throughput of a simulated schedule segment
};

struct OnlineOptions {
  ReschedulerOptions sched;
  RateModel rate_model = RateModel::Fluid;
  /// Sharing policy, segment length and per-connection window (used by
  /// SharingPolicy::BoundedWindow) for RateModel::Simulated.
  sim::SharingPolicy sim_policy = sim::SharingPolicy::MaxMin;
  int sim_periods = 2;
  double sim_window_units = 50.0;
  /// Remaining load at or below this is treated as drained (absolute;
  /// loads are O(100) so this absorbs accumulated drain rounding).
  double load_eps = 1e-6;
};

struct OnlineReport {
  int arrivals = 0;
  int completed = 0;
  int aborted = 0;           ///< killed by their home cluster churning out
  int rejected = 0;          ///< arrived while their home cluster was out
  int reschedules = 0;       ///< solver invocations (support changed)
  int queued_arrivals = 0;   ///< arrivals that had to wait in a queue
  int platform_events = 0;   ///< dynamics events applied during the replay
  int warm_solves = 0;
  int cold_solves = 0;
  /// Warm solves that went through the basis-repair path (capacity
  /// events re-priced the model under the capsule); subset of warm.
  int repaired_solves = 0;
  double warm_seconds = 0.0;
  double cold_seconds = 0.0;
  double makespan = 0.0;     ///< last departure (completion) time
  double total_work = 0.0;   ///< load units drained (aborts drain partially)
  int peak_active = 0;
  int peak_queued = 0;       ///< largest single-cluster queue length
  OnlineMetrics metrics;
  /// One record per application, in arrival order; check outcome —
  /// dynamics replays may abort or reject applications.
  std::vector<AppRecord> apps;
};

class OnlineEngine {
public:
  OnlineEngine(const platform::Platform& plat, OnlineOptions options);

  /// Replays the workload to completion. Deterministic: the report is a
  /// pure function of (platform, workload, options). Throws dls::Error
  /// on invalid workloads or solver failure.
  [[nodiscard]] OnlineReport run(const Workload& workload) const;

  /// Replays the workload against a stream of platform events (see the
  /// header comment). Deterministic in (platform, workload, trace,
  /// options); an empty trace reproduces run(workload) bit for bit.
  [[nodiscard]] OnlineReport run(const Workload& workload,
                                 const dynamics::EventTrace& trace) const;

private:
  const platform::Platform* plat_;
  OnlineOptions options_;
};

}  // namespace dls::online
