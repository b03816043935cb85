// ServeEngine: the one multi-load event engine. The load-bearing
// assertion is the golden check — replaying recorded workloads (and a
// platform-event trace) through replay_step() reproduces, bit for bit,
// the per-app records and solve counts of the former batch replay
// OnlineEngine::run_multi, captured from it before it was removed —
// plus admission control, churn semantics and the large-virtual-time
// completion rule.
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/loads.hpp"
#include "online/workload.hpp"
#include "platform/generator.hpp"
#include "support/error.hpp"

namespace dls::serve {
namespace {

platform::Platform test_platform(int k, std::uint64_t seed) {
  platform::GeneratorParams params;
  params.num_clusters = k;
  params.ensure_connected = true;
  Rng rng(seed);
  return generate_platform(params, rng);
}

online::Workload poisson(int k, int count, std::uint64_t seed,
                         double rate = 2.0) {
  online::PoissonParams p;
  p.count = count;
  p.rate = rate;
  Rng rng(seed);
  return online::poisson_workload(p, k, rng);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Replays a workload (and optional platform events) to the end.
void replay_to_end(ServeEngine& engine, const online::Workload& wl,
                   const dynamics::EventTrace& trace = {}) {
  Replay r{wl.arrivals, trace.events};
  while (engine.replay_step(r, kInf)) {
  }
}

/// Twelve loads arriving together at t=0 (ties on every cluster).
online::Workload batch_at_zero(int k) {
  online::Workload wl;
  for (int i = 0; i < 12; ++i) {
    online::AppArrival a;
    a.cluster = i % k;
    a.payoff = 1.0 + 0.5 * (i % 3);
    a.load = 200.0 + 37.0 * i;
    wl.arrivals.push_back(a);
  }
  return wl;
}

/// Capacity, topology and churn events, two of them tied with arrivals.
dynamics::EventTrace churn_trace(const platform::Platform& plat,
                                 const online::Workload& wl) {
  using dynamics::EventKind;
  dynamics::EventTrace t;
  const auto add = [&](double time, EventKind kind, int target, double value) {
    t.events.push_back({time, kind, target, value});
  };
  add(1.5, EventKind::LinkBandwidth, 0, plat.link(0).bw * 0.5);
  add(wl.arrivals[8].time, EventKind::ClusterLeave, 1, 0.0);
  add(5.0, EventKind::LinkDown, 1, 0.0);
  add(7.0, EventKind::LinkUp, 1, 0.0);
  add(wl.arrivals[25].time, EventKind::ClusterJoin, 1, 0.0);
  add(10.0, EventKind::GatewayBandwidth, 2, plat.cluster(2).gateway_bw * 0.3);
  return t;
}

/// FNV-1a over the bit patterns of each app's admit, depart, slowdown
/// and outcome, in app order.
std::uint64_t record_digest(const std::vector<online::AppRecord>& apps) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const auto bits = [](double d) {
    std::uint64_t b = 0;
    std::memcpy(&b, &d, sizeof b);
    return b;
  };
  for (const online::AppRecord& a : apps) {
    mix(bits(a.admit));
    mix(bits(a.depart));
    mix(bits(a.slowdown));
    mix(static_cast<std::uint64_t>(a.outcome));
  }
  return h;
}

struct Golden {
  const char* name;
  std::uint64_t admitted, completed, aborted, rejected;
  std::uint64_t reschedules, warm, cold, repaired;
  std::uint64_t digest;
  double makespan, total_work, response_mean, utilization_mean;
};

// Captured from OnlineEngine::run_multi (K=5 platform, generator seed 3)
// before the batch replay was folded into ServeEngine. Case names are
// <workload>/<objective>: poisson = 60 arrivals at rate 3 (seed 7),
// batch = batch_at_zero, churn = poisson plus churn_trace. The digest
// skips arrivals rejected by churn: ServeEngine keeps records of
// admitted loads only.
const Golden kGoldens[] = {
    {"poisson/sum", 60, 60, 0, 0, 119, 100, 19, 0, 0x808a0f8403cfe40eULL,
     0x1.f429ef5f9a606p+5, 0x1.e09dc46817645p+14, 0x1.93a2c84ad80bcp+4,
     0x1.f7cc323c4834bp-1},
    {"batch/sum", 12, 12, 0, 0, 12, 11, 1, 0, 0xe878f1cf81e7d6f5ULL,
     0x1.39082c81ca569p+3, 0x1.2ea0000000001p+12, 0x1.70341f8caac45p+2,
     0x1.fadb94d195ed2p-1},
    {"churn/sum", 57, 55, 2, 3, 114, 90, 24, 1, 0x8c38e872b5823c13ULL,
     0x1.d6a729d730aeep+5, 0x1.bb8fe99432fabp+14, 0x1.72fb1ab18a898p+4,
     0x1.f4d6c9c3db095p-1},
    {"poisson/maxmin", 60, 60, 0, 0, 119, 0, 119, 0, 0xeb39896011f3d335ULL,
     0x1.f50e4e22fbbbdp+5, 0x1.e09dc46817647p+14, 0x1.2503ba99c931cp+5,
     0x1.f6e69390dedb2p-1},
    {"batch/maxmin", 12, 12, 0, 0, 12, 0, 12, 0, 0x796085889c027283ULL,
     0x1.3801a9a123716p+3, 0x1.2ea0000000001p+12, 0x1.ded997b8704ap+2,
     0x1.fc860894858a6p-1},
    {"churn/maxmin", 57, 56, 1, 3, 115, 2, 113, 1, 0xb5ff637fc45649cbULL,
     0x1.db5525e2211fp+5, 0x1.bead60462fffcp+14, 0x1.0e781ec6fb719p+5,
     0x1.f3581d92f6292p-1},
    {"poisson/pf", 60, 60, 0, 0, 119, 100, 19, 0, 0xf4baba5d02726e9cULL,
     0x1.f4012d537119bp+5, 0x1.e09dc46817648p+14, 0x1.df4e2c03019c9p+4,
     0x1.f7f5436f93d16p-1},
    {"batch/pf", 12, 12, 0, 0, 12, 11, 1, 0, 0xc2e7af5083df396fULL,
     0x1.35ff8cba87b2ap+3, 0x1.2ea0000000001p+12, 0x1.a54065c960f23p+2,
     0x1.ffd1636ca63f4p-1},
    {"churn/pf", 57, 55, 2, 3, 114, 89, 25, 1, 0xa183b79eda1156efULL,
     0x1.f9f69aea11325p+5, 0x1.bc5f619d1923ap+14, 0x1.ad3c84d55bdd9p+4,
     0x1.d2b9e0f994585p-1},
};

TEST(ServeEngine, MatchesRunMultiBitExactly) {
  const platform::Platform plat = test_platform(5, 3);
  const online::Workload pois = poisson(5, 60, 7, 3.0);
  const online::Workload batch = batch_at_zero(5);
  const dynamics::EventTrace trace = churn_trace(plat, pois);
  for (const Golden& g : kGoldens) {
    SCOPED_TRACE(g.name);
    const std::string name = g.name;
    const std::string objective = name.substr(name.find('/') + 1);
    EngineOptions options;
    ASSERT_TRUE(
        core::parse_multi_objective(objective, options.sched.solve.objective));
    ServeEngine engine(plat, options);
    if (name.rfind("poisson/", 0) == 0) {
      replay_to_end(engine, pois);
    } else if (name.rfind("batch/", 0) == 0) {
      replay_to_end(engine, batch);
    } else {
      replay_to_end(engine, pois, trace);
    }

    const EngineCounters& c = engine.counters();
    EXPECT_EQ(engine.active_count(), 0);
    EXPECT_EQ(c.admitted, g.admitted);
    EXPECT_EQ(c.completed, g.completed);
    EXPECT_EQ(c.aborted_churn, g.aborted);
    EXPECT_EQ(c.rejected_absent, g.rejected);
    EXPECT_EQ(c.reschedules, g.reschedules);
    EXPECT_EQ(c.warm_solves, g.warm);
    EXPECT_EQ(c.cold_solves, g.cold);
    EXPECT_EQ(c.repaired_solves, g.repaired);
    EXPECT_EQ(record_digest(engine.apps()), g.digest);
    EXPECT_EQ(c.makespan, g.makespan);      // bit-exact
    EXPECT_EQ(c.total_work, g.total_work);  // bit-exact
    EXPECT_EQ(engine.metrics().response.mean(), g.response_mean);
    EXPECT_EQ(engine.metrics().utilization.mean(), g.utilization_mean);
  }
}

TEST(ServeEngine, DeterministicAcrossRuns) {
  const platform::Platform plat = test_platform(6, 11);
  const online::Workload wl = poisson(6, 80, 13, 4.0);
  EngineCounters a, b;
  double depart_sum_a = 0.0, depart_sum_b = 0.0;
  {
    ServeEngine engine(plat, {});
    replay_to_end(engine, wl);
    a = engine.counters();
    for (const online::AppRecord& r : engine.apps()) depart_sum_a += r.depart;
  }
  {
    ServeEngine engine(plat, {});
    replay_to_end(engine, wl);
    b = engine.counters();
    for (const online::AppRecord& r : engine.apps()) depart_sum_b += r.depart;
  }
  EXPECT_EQ(a.reschedules, b.reschedules);
  EXPECT_EQ(a.warm_solves, b.warm_solves);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(depart_sum_a, depart_sum_b);  // bit-exact
}

TEST(ServeEngine, MaxLoadsBudgetRejectsOverload) {
  const platform::Platform plat = test_platform(4, 5);
  EngineOptions options;
  options.max_loads = 2;
  ServeEngine engine(plat, options);
  EXPECT_EQ(engine.arrive(0.0, 0, 1.0, 1e5).admit, Admit::Admitted);
  EXPECT_EQ(engine.arrive(0.1, 1, 1.0, 1e5).admit, Admit::Admitted);
  const ServeEngine::ArriveResult r = engine.arrive(0.2, 2, 1.0, 1e5);
  EXPECT_EQ(r.admit, Admit::RejectedOverload);
  EXPECT_EQ(r.id, -1);
  EXPECT_EQ(engine.active_count(), 2);
  EXPECT_EQ(engine.counters().rejected_overload, 1u);
  // A departure frees a seat.
  EXPECT_TRUE(engine.depart(0.3, 0));
  EXPECT_EQ(engine.arrive(0.4, 2, 1.0, 1e5).admit, Admit::Admitted);
}

TEST(ServeEngine, DrainingRejectsArrivalsButFinishesActiveLoads) {
  const platform::Platform plat = test_platform(4, 5);
  ServeEngine engine(plat, {});
  const int id = engine.arrive(0.0, 0, 1.0, 1000.0).id;
  ASSERT_GE(id, 0);
  engine.begin_drain();
  EXPECT_EQ(engine.arrive(1.0, 1, 1.0, 1000.0).admit, Admit::RejectedDraining);
  EXPECT_EQ(engine.counters().rejected_draining, 1u);
  const double t_done = engine.next_completion();
  ASSERT_TRUE(std::isfinite(t_done));
  engine.advance_to(t_done);
  EXPECT_EQ(engine.active_count(), 0);
  EXPECT_EQ(engine.counters().completed, 1u);
}

TEST(ServeEngine, ClusterChurnAbortsAndRejects) {
  const platform::Platform plat = test_platform(4, 5);
  ServeEngine engine(plat, {});
  (void)engine.arrive(0.0, 0, 1.0, 1e6);
  (void)engine.arrive(0.0, 1, 1.0, 1e6);

  dynamics::PlatformEvent leave;
  leave.time = 1.0;
  leave.kind = dynamics::EventKind::ClusterLeave;
  leave.target = 0;
  engine.apply_event(1.0, leave);
  EXPECT_EQ(engine.counters().aborted_churn, 1u);
  EXPECT_EQ(engine.active_count(), 1);
  EXPECT_EQ(engine.apps()[0].outcome, online::AppOutcome::AbortedChurn);

  // Arrivals homed on the missing cluster are rejected, not queued.
  EXPECT_EQ(engine.arrive(2.0, 0, 1.0, 1000.0).admit, Admit::RejectedAbsent);
  EXPECT_EQ(engine.counters().rejected_absent, 1u);

  dynamics::PlatformEvent join;
  join.time = 3.0;
  join.kind = dynamics::EventKind::ClusterJoin;
  join.target = 0;
  engine.apply_event(3.0, join);
  EXPECT_EQ(engine.arrive(4.0, 0, 1.0, 1000.0).admit, Admit::Admitted);
}

TEST(ServeEngine, CancelledLoadsLeaveTheSchedule) {
  const platform::Platform plat = test_platform(4, 9);
  ServeEngine engine(plat, {});
  const int a = engine.arrive(0.0, 0, 1.0, 1e6).id;
  const int b = engine.arrive(0.0, 1, 1.0, 1000.0).id;
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_TRUE(engine.depart(0.5, a));
  EXPECT_FALSE(engine.depart(0.6, a));  // already gone
  EXPECT_EQ(engine.apps()[static_cast<std::size_t>(a)].outcome,
            online::AppOutcome::Cancelled);
  engine.advance_to(engine.next_completion());
  EXPECT_EQ(engine.counters().completed, 1u);
  EXPECT_EQ(engine.counters().cancelled, 1u);
  EXPECT_EQ(engine.apps()[static_cast<std::size_t>(b)].outcome,
            online::AppOutcome::Completed);
}

TEST(ServeEngine, PerRequestCallsSolveOncePerArrival) {
  // arrive() keeps its one solve per call; replay_step() batches the
  // same tied arrivals into one solve.
  const platform::Platform plat = test_platform(5, 3);
  const online::Workload wl = batch_at_zero(5);
  ServeEngine engine(plat, {});
  for (const online::AppArrival& a : wl.arrivals)
    (void)engine.arrive(a.time, a.cluster, a.payoff, a.load);
  EXPECT_EQ(engine.counters().reschedules, 12u);

  ServeEngine batched(plat, {});
  const dynamics::EventTrace no_events;
  Replay r{wl.arrivals, no_events.events};
  ASSERT_TRUE(batched.replay_step(r, 0.0));
  EXPECT_EQ(batched.active_count(), 12);
  EXPECT_EQ(batched.counters().reschedules, 1u);
}

TEST(ServeEngine, LargeVirtualTimesStillRetireEveryLoad) {
  // At now ~ 2e9 a finishing load's remaining/rate can drop below half
  // an ulp of now while remaining still exceeds load_eps; it must count
  // as due, or advance_to(next_completion()) never makes progress.
  const platform::Platform plat = test_platform(64, 3);
  ServeEngine engine(plat, {});
  for (int c = 0; c < 12; ++c)
    ASSERT_EQ(engine.arrive(0.0, c, 1.0, 1e12).admit, Admit::Admitted);
  while (std::isfinite(engine.next_completion()))
    engine.advance_to(engine.next_completion());
  EXPECT_EQ(engine.counters().completed, 12u);
  EXPECT_EQ(engine.active_count(), 0);
  EXPECT_GT(engine.now(), 2e9);
}

TEST(ServeEngine, RejectsInvalidArguments) {
  const platform::Platform plat = test_platform(3, 1);
  ServeEngine engine(plat, {});
  EXPECT_THROW((void)engine.arrive(0.0, -1, 1.0, 100.0), Error);
  EXPECT_THROW((void)engine.arrive(0.0, 99, 1.0, 100.0), Error);
  EXPECT_THROW((void)engine.arrive(0.0, 0, 0.0, 100.0), Error);
  EXPECT_THROW((void)engine.arrive(0.0, 0, 1.0, 0.0), Error);
}

}  // namespace
}  // namespace dls::serve
