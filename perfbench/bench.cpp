// perfbench: end-to-end benchmark of the scheduling-event path and the
// paper's offline case (README.md has the workloads, metrics and the
// layer -> end-to-end map).
//
//   perfbench --workload serve_sum|serve_maxmin|offline_sum
//             --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Every workload is a closed loop with one caller: the next op is issued
// when the previous one returns. Set-up ends with a fixed number of
// untimed warm-up ops, which bring the workload to its steady state.
// The last line of stdout is one JSON object {correct, attempted,
// failed, metrics}. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the run first replays the stream untraced for a third
// of the time, then replays the same ops traced (benchmark-side spans,
// written to --spans, plus shadow calls into each layer) and reports
// the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/heuristics.hpp"
#include "core/multi_solve.hpp"
#include "core/problem.hpp"
#include "dynamics/dynamic_platform.hpp"
#include "dynamics/events.hpp"
#include "exp/experiment.hpp"
#include "obs/metrics.hpp"
#include "online/rescheduler.hpp"
#include "platform/generator.hpp"
#include "platform/serialization.hpp"
#include "serve/engine.hpp"
#include "support/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t ns_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws Failure when a checker returned a verdict.
void require_ok(const std::string& verdict, const std::string& where) {
  if (!verdict.empty()) throw Failure(where + ": " + verdict);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double exp_draw(dls::Rng& rng, double rate) {
  return -std::log(1.0 - rng.uniform01()) / rate;
}

double normal_draw(dls::Rng& rng) {
  const double u1 = 1.0 - rng.uniform01(), u2 = rng.uniform01();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

// ---- benchmark-side spans ---------------------------------------------------

/// Spans kept in memory during the run (name, start, end, parent) and
/// written as JSONL when it ends. Only traced runs record.
class Spans {
public:
  int begin(const char* name, int parent) {
    spans_.push_back({name, ns_now(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Records an already-timed interval.
  int add(const char* name, std::int64_t start, std::int64_t end, int parent) {
    spans_.push_back({name, start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end = ns_now(); }
  void write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
          << s.start << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
          << "}\n";
    }
  }

private:
  struct Span {
    const char* name;
    std::int64_t start, end;
    int parent;
  };
  std::vector<Span> spans_;
};

/// Timed call recorded as a span when `spans` is non-null.
template <class F>
double timed(Spans* spans, const char* name, int parent, F&& f) {
  const std::int64_t t0 = ns_now();
  f();
  const std::int64_t t1 = ns_now();
  if (spans != nullptr) spans->add(name, t0, t1, parent);
  return static_cast<double>(t1 - t0) * 1e-9;
}

// ---- what the lp/online/dynamics layers count themselves -----------------------

/// The program's own obs::registry() counters that the per-layer
/// metrics read; deltas are taken around shadow calls.
struct LayerCounts {
  double lp_seconds = 0.0;
  double pivots = 0.0, refactorizations = 0.0;
  double solves_cold = 0.0, solves_warm = 0.0, solves_repaired = 0.0;
  double ftran = 0.0, btran = 0.0, ftran_fallbacks = 0.0, btran_fallbacks = 0.0;
  double slot_grows = 0.0, routes_changed = 0.0;

  static LayerCounts read() {
    LayerCounts c;
    for (const auto& s : dls::obs::registry().snapshot().series) {
      const double v = static_cast<double>(s.counter);
      if (s.name == "dls_lp_solve_seconds") c.lp_seconds = s.sum;
      else if (s.name == "dls_lp_pivots_total") c.pivots = v;
      else if (s.name == "dls_lp_refactorizations_total") c.refactorizations = v;
      else if (s.name == "dls_lp_solves_total" && s.labels == "start=\"cold\"") c.solves_cold = v;
      else if (s.name == "dls_lp_solves_total" && s.labels == "start=\"warm\"") c.solves_warm = v;
      else if (s.name == "dls_lp_solves_total" && s.labels == "start=\"repaired\"") c.solves_repaired = v;
      else if (s.name == "dls_lp_ftran_reach_fraction") c.ftran = static_cast<double>(s.count);
      else if (s.name == "dls_lp_btran_reach_fraction") c.btran = static_cast<double>(s.count);
      else if (s.name == "dls_lp_ftran_fallbacks_total") c.ftran_fallbacks = v;
      else if (s.name == "dls_lp_btran_fallbacks_total") c.btran_fallbacks = v;
      else if (s.name == "dls_resched_slot_grow_total") c.slot_grows = v;
      else if (s.name == "dls_platform_routes_changed_total") c.routes_changed = v;
    }
    return c;
  }
  /// Applies `sign` * o field by field.
  LayerCounts& add(const LayerCounts& o, double sign = 1.0) {
    lp_seconds += sign * o.lp_seconds;
    pivots += sign * o.pivots;
    refactorizations += sign * o.refactorizations;
    solves_cold += sign * o.solves_cold;
    solves_warm += sign * o.solves_warm;
    solves_repaired += sign * o.solves_repaired;
    ftran += sign * o.ftran;
    btran += sign * o.btran;
    ftran_fallbacks += sign * o.ftran_fallbacks;
    btran_fallbacks += sign * o.btran_fallbacks;
    slot_grows += sign * o.slot_grows;
    routes_changed += sign * o.routes_changed;
    return *this;
  }
  LayerCounts operator-(const LayerCounts& o) const {
    LayerCounts d = *this;
    return d.add(o, -1.0);
  }
};

/// Per-layer sums over the traced phase. Every mean is over the calls
/// that layer actually served; a layer a workload never calls reads 0.
struct LayerSums {
  double ops = 0, op_s = 0;
  double resched_calls = 0, resched_s = 0;
  double problem_calls = 0, problem_s = 0;
  double patch_calls = 0, patch_s = 0;
  double build_calls = 0, build_s = 0;
  double greedy_calls = 0, greedy_s = 0;
  double round_calls = 0, round_s = 0;
  double apply_calls = 0, apply_s = 0;
  double attributed_s = 0;  ///< op time covered by a deeper layer's span
  double parse_ms = 0, generate_ms = 0;
  std::vector<double> lp_s{0, 0, 0}, lp_n{0, 0, 0}, lp_piv{0, 0, 0};  // cold/warm/repaired
  LayerCounts counts;  ///< registry deltas summed over shadow calls
  double cold = 0, warm = 0, repaired = 0;  ///< engine solves by start

  /// Attributes one shadow LP call's registry delta to its start kind.
  void add_lp(const LayerCounts& d) {
    const int kind = d.solves_cold > 0 ? 0 : d.solves_repaired > 0 ? 2 : 1;
    if (d.solves_cold + d.solves_warm + d.solves_repaired <= 0) return;
    lp_s[kind] += d.lp_seconds;
    lp_n[kind] += d.solves_cold + d.solves_warm + d.solves_repaired;
    lp_piv[kind] += d.pivots;
  }
};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// ---- result ------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

struct RunResult {
  bool correct = true;
  long attempted = 0, failed = 0;
  std::vector<Metric> metrics;
};

void print_result(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(r.metrics[i].value) ? r.metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + r.metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

/// The per-layer metric list (same names on every workload; see README).
std::vector<Metric> layer_metrics(const LayerSums& L, double overhead_ratio) {
  const auto& c = L.counts;
  const double solves = c.solves_cold + c.solves_warm + c.solves_repaired;
  const double ms = 1e3;
  const double per_kop = L.ops > 0 ? 1000.0 / L.ops : 0.0;
  return {
      {"serve.self_ms", "ms", ratio(L.op_s - L.resched_s - L.apply_s, L.ops) * ms *
                                  (L.resched_calls > 0 ? 1.0 : 0.0)},
      {"online.reschedule_ms", "ms", ratio(L.resched_s, L.resched_calls) * ms},
      {"online.self_ms", "ms",
       ratio(L.resched_s - c.lp_seconds - L.problem_s - L.patch_s - L.build_s,
             L.resched_calls) * ms},
      {"online.cold_solves", "count/kop", L.cold * per_kop},
      {"online.warm_solves", "count/kop", L.warm * per_kop},
      {"online.repaired_solves", "count/kop", L.repaired * per_kop},
      {"online.slot_grows", "count/kop", c.slot_grows * per_kop},
      {"core.problem_ms", "ms", ratio(L.problem_s, L.problem_calls) * ms},
      {"core.reduced_patch_ms", "ms", ratio(L.patch_s, L.patch_calls) * ms},
      {"core.reduced_build_ms", "ms", ratio(L.build_s, L.build_calls) * ms},
      {"core.greedy_ms", "ms", ratio(L.greedy_s, L.greedy_calls) * ms},
      {"core.round_ms", "ms", ratio(L.round_s, L.round_calls) * ms},
      {"lp.warm_solve_ms", "ms", ratio(L.lp_s[1], L.lp_n[1]) * ms},
      {"lp.pivots_per_warm_solve", "pivots", ratio(L.lp_piv[1], L.lp_n[1])},
      {"lp.cold_solve_ms", "ms", ratio(L.lp_s[0], L.lp_n[0]) * ms},
      {"lp.repaired_solve_ms", "ms", ratio(L.lp_s[2], L.lp_n[2]) * ms},
      {"lp.pivots_per_cold_solve", "pivots", ratio(L.lp_piv[0], L.lp_n[0])},
      {"lp.us_per_pivot", "us", ratio(c.lp_seconds, c.pivots) * 1e6},
      {"lp.refactorizations_per_solve", "count", ratio(c.refactorizations, solves)},
      {"lp.ftran_fallback_rate", "fraction", ratio(c.ftran_fallbacks, c.ftran)},
      {"lp.btran_fallback_rate", "fraction", ratio(c.btran_fallbacks, c.btran)},
      {"dynamics.apply_ms", "ms", ratio(L.apply_s, L.apply_calls) * ms},
      {"dynamics.routes_changed", "count", ratio(c.routes_changed, L.apply_calls)},
      {"platform.parse_ms", "ms", L.parse_ms},
      {"platform.generate_ms", "ms", L.generate_ms},
      {"unattributed_fraction", "fraction", 1.0 - ratio(L.attributed_s, L.op_s)},
      {"trace_overhead_ratio", "ratio", overhead_ratio},
  };
}

// ---- the workload interface ----------------------------------------------------

/// One workload instance: set-up once, then ops until told to stop.
class Workload {
public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// The program's set-up work. setup_s covers everything from the start
  /// of the process through this and the warm-up ops.
  virtual void setup() = 0;
  /// Issues one op; returns its duration in seconds. Throws Failure on a
  /// wrong output, anything else on a failed op.
  virtual double op() = 0;
  /// Untimed ops that end set-up: enough to reach the workload's steady
  /// state, and to make setup_s long against the host's speed phases,
  /// which alternate every few hundred ms.
  [[nodiscard]] virtual long warmup_ops() const = 0;
  /// Starts the traced run's per-layer bookkeeping (`layers` is set).
  virtual void enable_shadows() = 0;
  /// Runs end on a multiple of this many ops, and run at least
  /// min_ops() ops.
  [[nodiscard]] virtual long round() const { return 1; }
  [[nodiscard]] virtual long min_ops() const { return 0; }

  Spans* spans = nullptr;     ///< non-null in the traced phase
  LayerSums* layers = nullptr;
};

// ---- serve_sum / serve_maxmin: ServeEngine in-process ---------------------------

/// Generator seed of the serve workloads' platforms.
constexpr std::uint64_t kPlatformSeed = 20050404;
/// Stream seed of the serve warm-up, so set-up does the same work on
/// every --seed.
constexpr std::uint64_t kWarmupSeed = 20050405;

/// The seeded event stream: Poisson arrivals of finite loads (the
/// program's workload defaults: mean load 500, spread 0.5, payoff
/// spread 0.5), client cancels, bandwidth drift and rare link
/// failure/repair. Completions come from the engine's own fluid
/// schedule. All clocks are virtual time.
struct StreamParams {
  double arrival_rate = 7.0;
  double cancel_rate = 0.7;
  double drift_rate = 0.3;
  double failure_rate = 0.02;
  double mean_repair = 2.0;
  double drift_sigma = 0.3;
  int max_active = 14;  ///< arrivals beyond this concurrency are not sent
};

class ServeInProcess : public Workload {
public:
  ServeInProcess(std::uint64_t seed, dls::core::MultiObjective objective)
      : objective_(objective), seed_(seed), rng_(kWarmupSeed) {
    // The platform and the warm-up are part of the workload, like a
    // deployment: the same generated, connected K=64 platform (generator
    // defaults) for every seed, handed to the engine as text, and the
    // same warm-up stream. The seed drives the stream after the warm-up.
    dls::Rng prng(kPlatformSeed);
    dls::platform::GeneratorParams gp;
    gp.num_clusters = 64;
    gp.ensure_connected = true;
    const auto t0 = Clock::now();
    const dls::platform::Platform generated = dls::platform::generate_platform(gp, prng);
    generate_ms_ = since(t0) * 1e3;
    text_ = dls::platform::to_text(generated);
    caps_ = perfbench::parse_cluster_caps(text_);
    for (int i = 0; i < generated.num_links(); ++i)
      base_bw_.push_back(generated.link(i).bw);
    draw_next_events();
  }

  void setup() override {
    const auto t0 = Clock::now();
    dls::platform::Platform plat = dls::platform::from_text(text_);
    parse_ms_ = since(t0) * 1e3;
    dls::serve::EngineOptions opts;
    opts.sched.solve.objective = objective_;
    engine_ = std::make_unique<dls::serve::ServeEngine>(std::move(plat), opts);
  }

  double op() override;
  /// Fills the engine from empty to its stationary ~10 active loads and
  /// lasts about half a second on either objective (a MaxMin op and its
  /// reference solve cost about five times a WeightedSum one).
  [[nodiscard]] long warmup_ops() const override {
    return objective_ == dls::core::MultiObjective::MaxMin ? 96 : 256;
  }

  /// Starts the shadows; called before the first op, so they see every
  /// event the engine sees.
  void enable_shadows() override {
    dls::online::MultiReschedulerOptions so;
    so.solve.objective = objective_;
    shadow_ = std::make_unique<dls::online::MultiLoadRescheduler>(engine_->plat(), so);
    shadow_dyn_ = std::make_unique<dls::dynamics::DynamicPlatform>(
        dls::platform::from_text(text_));
    layers->parse_ms = parse_ms_;
    layers->generate_ms = generate_ms_;
  }

  /// Op mix of the run so far (for README's stream make-up).
  std::map<std::string, long> mix;
  double active_sum = 0.0;
  [[nodiscard]] const dls::serve::EngineCounters& counters() const {
    return engine_->counters();
  }
  [[nodiscard]] double vt() const { return vt_; }

private:
  enum class Kind { Arrive, Cancel, Complete, Drift, LinkDown, LinkUp };

  struct Load {
    int home = 0;
    double payoff = 1.0, load = 0.0, rem = 0.0, rate = 0.0;
  };

  /// Draws every pending event time afresh from vt_: the processes are
  /// memoryless, so this only switches the random stream.
  void draw_next_events() {
    t_arrive_ = vt_ + exp_draw(rng_, p_.arrival_rate);
    t_cancel_ = vt_ + exp_draw(rng_, p_.cancel_rate);
    t_drift_ = vt_ + exp_draw(rng_, p_.drift_rate);
    if (down_link_ < 0) t_fail_ = vt_ + exp_draw(rng_, p_.failure_rate);
    else t_repair_ = vt_ + exp_draw(rng_, 1.0 / p_.mean_repair);
  }

  std::vector<int> routed_links(bool need_up) const {
    std::vector<int> out;
    const auto& plat = engine_->plat();
    for (int i = 0; i < plat.num_links(); ++i)
      if (plat.num_routes_through(i) > 0 && (!need_up || plat.link(i).up))
        out.push_back(i);
    return out;
  }

  void verify_after(const std::vector<int>& expect_gone,
                    const dls::serve::EngineCounters& before);
  void shadow_step(const dls::dynamics::PlatformEvent* ev,
                   dls::dynamics::ChangeScope scope, bool rescheduled, int op_span);
  void core_replica(int parent, double shadow_grows);

  dls::core::MultiObjective objective_;
  std::uint64_t seed_;
  StreamParams p_;
  dls::Rng rng_;
  std::string text_;
  std::vector<perfbench::ClusterCaps> caps_;
  std::vector<double> base_bw_;
  double parse_ms_ = 0, generate_ms_ = 0;
  std::unique_ptr<dls::serve::ServeEngine> engine_;

  long ops_ = 0;
  double t_arrive_ = 0, t_cancel_ = 0, t_drift_ = 0, t_fail_ = 0;
  double t_repair_ = std::numeric_limits<double>::infinity();
  int down_link_ = -1;
  double vt_ = 0.0;  ///< benchmark's view of the engine clock
  std::map<int, Load> loads_;
  long warm_seen_ = 0;

  // Shadows (traced phase only).
  std::unique_ptr<dls::online::MultiLoadRescheduler> shadow_;
  std::unique_ptr<dls::dynamics::DynamicPlatform> shadow_dyn_;
  // Core replica of the rescheduler's slot problem.
  std::vector<int> slots_per_cluster_;
  std::map<int, int> slot_of_;
  std::vector<int> slot_app_;
  std::optional<dls::core::SteadyStateProblem> problem_;
  std::optional<dls::core::SteadyStateProblem::ReducedModel> reduced_;
};

double ServeInProcess::op() {
  using dls::dynamics::EventKind;
  const double t_complete = engine_->next_completion();
  const double t_event = std::min({t_arrive_, t_cancel_, t_drift_, t_fail_, t_repair_});

  // Integrate the rates the benchmark read after the previous op.
  auto integrate = [&](double t) {
    for (auto& [id, l] : loads_) l.rem -= l.rate * (t - vt_);
    vt_ = std::max(vt_, t);
  };

  Kind kind;
  dls::dynamics::PlatformEvent ev;
  std::vector<int> expect_gone;
  int target_id = -1;
  Load arriving;
  if (t_complete <= t_event) {
    kind = Kind::Complete;
    // Prediction from the benchmark's own residuals and rates.
    double t_pred = std::numeric_limits<double>::infinity();
    for (const auto& [id, l] : loads_)
      if (l.rate > 0) t_pred = std::min(t_pred, vt_ + l.rem / l.rate);
    require_ok(perfbench::check_close(t_pred, t_complete, 1e-9, "completion time"),
               "serve");
    integrate(t_complete);
    for (const auto& [id, l] : loads_)
      if (l.rem <= 1e-6) expect_gone.push_back(id);
    if (expect_gone.empty()) throw Failure("serve: predicted completion drains no load");
  } else if (t_event == t_arrive_) {
    kind = Kind::Arrive;
    if (static_cast<int>(loads_.size()) >= p_.max_active) {
      // The client holds the arrival back: the stream stays stationary
      // under objectives that drain slower than it arrives.
      t_arrive_ += exp_draw(rng_, p_.arrival_rate);
      return -1.0;
    }
    arriving.home = static_cast<int>(rng_.index(caps_.size()));
    arriving.payoff = rng_.uniform(0.5, 1.5);
    arriving.load = rng_.uniform(250.0, 750.0);
    arriving.rem = arriving.load;
    t_arrive_ += exp_draw(rng_, p_.arrival_rate);
  } else if (t_event == t_cancel_) {
    t_cancel_ += exp_draw(rng_, p_.cancel_rate);
    if (loads_.empty()) return -1.0;  // nothing to cancel: no op
    kind = Kind::Cancel;
    const auto& ids = engine_->active_ids();
    target_id = ids[rng_.index(ids.size())];
  } else if (t_event == t_drift_) {
    kind = Kind::Drift;
    t_drift_ += exp_draw(rng_, p_.drift_rate);
    const std::vector<int> links = routed_links(true);
    ev.kind = EventKind::LinkBandwidth;
    ev.target = links[rng_.index(links.size())];
    const double f = std::exp(p_.drift_sigma * normal_draw(rng_));
    ev.value = base_bw_[ev.target] * std::clamp(f, 0.25, 4.0);
  } else if (t_event == t_fail_) {
    kind = Kind::LinkDown;
    const std::vector<int> links = routed_links(true);
    ev.kind = EventKind::LinkDown;
    ev.target = links[rng_.index(links.size())];
    down_link_ = ev.target;
    t_fail_ = std::numeric_limits<double>::infinity();
    t_repair_ = t_event + exp_draw(rng_, 1.0 / p_.mean_repair);
  } else {
    kind = Kind::LinkUp;
    ev.kind = EventKind::LinkUp;
    ev.target = down_link_;
    down_link_ = -1;
    t_repair_ = std::numeric_limits<double>::infinity();
    t_fail_ = t_event + exp_draw(rng_, p_.failure_rate);
  }
  if (kind != Kind::Complete) integrate(t_event);
  ev.time = vt_;

  const dls::serve::EngineCounters before = engine_->counters();
  dls::dynamics::ChangeScope scope = dls::dynamics::ChangeScope::None;
  int new_id = -1;
  const int op_span = spans != nullptr ? spans->begin("serve.op", -1) : -1;
  const auto t0 = Clock::now();
  switch (kind) {
    case Kind::Complete: engine_->advance_to(vt_); break;
    case Kind::Arrive:
      new_id = engine_->arrive(vt_, arriving.home, arriving.payoff, arriving.load).id;
      break;
    case Kind::Cancel: engine_->depart(vt_, target_id); break;
    default: scope = engine_->apply_event(vt_, ev); break;
  }
  const double dt = since(t0);
  if (spans != nullptr) spans->end(op_span);

  static const char* names[] = {"arrive", "cancel", "complete", "drift", "link_down", "link_up"};
  ++mix[names[static_cast<int>(kind)]];
  active_sum += static_cast<double>(engine_->active_count());
  if (kind == Kind::Arrive) {
    if (new_id < 0) throw Failure("serve: arrival not admitted");
    loads_[new_id] = arriving;
  }
  if (kind == Kind::Cancel) expect_gone.push_back(target_id);
  // Shadows first: the reference cold solve of the checks below would
  // otherwise evict what the next layer call finds in cache.
  if (layers != nullptr) {
    layers->ops += 1;
    layers->op_s += dt;
    const auto& after = engine_->counters();
    layers->cold += static_cast<double>(after.cold_solves - before.cold_solves);
    layers->warm += static_cast<double>(after.warm_solves - before.warm_solves -
                                        (after.repaired_solves - before.repaired_solves));
    layers->repaired += static_cast<double>(after.repaired_solves - before.repaired_solves);
    shadow_step(kind == Kind::Drift || kind == Kind::LinkDown || kind == Kind::LinkUp
                          ? &ev : nullptr,
                scope, after.reschedules > before.reschedules, op_span);
  }
  verify_after(expect_gone, before);
  if (++ops_ == warmup_ops()) {
    rng_.reseed(seed_ * 0x9e3779b97f4a7c15ULL + 11);
    draw_next_events();
  }
  return dt;
}

void ServeInProcess::verify_after(const std::vector<int>& expect_gone,
                                  const dls::serve::EngineCounters& before) {
  // Loads that left are exactly the ones predicted; everyone else stays.
  for (const int id : expect_gone) loads_.erase(id);
  const auto& ids = engine_->active_ids();
  if (ids.size() != loads_.size())
    throw Failure("serve: engine has " + std::to_string(ids.size()) +
                  " active loads, benchmark expects " + std::to_string(loads_.size()));
  std::vector<int> home;
  std::vector<double> rate;
  double sum_obj = 0.0, min_obj = std::numeric_limits<double>::infinity();
  for (const int id : ids) {
    auto it = loads_.find(id);
    if (it == loads_.end()) throw Failure("serve: unexpected active load " + std::to_string(id));
    Load& l = it->second;
    require_ok(perfbench::check_residual(l.rem, engine_->load_remaining(id), l.load,
                                         1e-9, 1e-9),
               "serve work conservation (load " + std::to_string(id) + ")");
    l.rate = engine_->load_rate(id);
    home.push_back(l.home);
    rate.push_back(l.rate);
    sum_obj += l.payoff * l.rate;
    min_obj = std::min(min_obj, l.payoff * l.rate);
  }
  // 1e-6 of the capacity scale covers the solver's own tolerance
  // (lp::SimplexOptions::feas_tol = 1e-7 times the largest rhs, per row).
  require_ok(perfbench::check_rate_bounds(caps_, home, rate, 1e-6), "serve capacity");

  // Objective of the returned rates against a cold solve of the same
  // active set on a fresh problem: on every cold or repaired op, and on
  // every 16th warm op.
  const auto& after = engine_->counters();
  const bool cold = after.cold_solves > before.cold_solves;
  const bool repaired = after.repaired_solves > before.repaired_solves;
  const bool warm = after.warm_solves > before.warm_solves && !repaired;
  if (ids.empty() || !(cold || repaired || (warm && warm_seen_++ % 16 == 0))) return;
  dls::core::LoadSet set;
  for (const int id : ids) {
    dls::core::LoadSpec spec;
    spec.source = loads_[id].home;
    spec.weight = loads_[id].payoff;
    set.loads.push_back(spec);
  }
  dls::core::MultiLoadSolveOptions so;
  so.objective = objective_;
  const dls::core::MultiLoadSolution ref = dls::core::solve_loads(engine_->plat(), set, so);
  if (ref.status != dls::lp::SolveStatus::Optimal)
    throw Failure("serve: reference cold solve failed");
  const double got =
      objective_ == dls::core::MultiObjective::MaxMin ? min_obj : sum_obj;
  require_ok(perfbench::check_close(got, ref.objective, 1e-6, "objective vs cold solve"),
             "serve");
}

void ServeInProcess::core_replica(int parent, double shadow_grows) {
  // The steps MultiLoadRescheduler takes before its LP solve, issued on
  // the same inputs through the core:: public API. The replica's slot
  // policy is a copy of the rescheduler's, so the run fails as soon as
  // its slot growths or slot count leave the shadow's.
  const auto& plat = engine_->plat();
  auto same_slots = [&](bool grown, int total) {
    if ((grown ? 1.0 : 0.0) != shadow_grows || total != shadow_->slot_count())
      throw Failure("core replica: " + std::to_string(grown ? 1 : 0) + " slot growths and " +
                    std::to_string(total) + " slots, the rescheduler " +
                    std::to_string(static_cast<long>(shadow_grows)) + " and " +
                    std::to_string(shadow_->slot_count()) +
                    "; the replica no longer copies its slot policy");
  };
  const auto& ids = engine_->active_ids();
  if (objective_ == dls::core::MultiObjective::MaxMin) {
    dls::core::LoadSet set;
    for (const int id : ids) {
      dls::core::LoadSpec spec;
      spec.source = loads_[id].home;
      spec.weight = loads_[id].payoff;
      set.loads.push_back(spec);
    }
    layers->problem_s += timed(spans, "core.problem", parent, [&] {
      problem_ = problem_ ? problem_->with_loads(std::move(set))
                          : dls::core::SteadyStateProblem(plat, std::move(set),
                                                          dls::core::Objective::MaxMin);
    });
    layers->problem_calls += 1;
    std::optional<dls::core::SteadyStateProblem::ReducedModel> built;
    layers->build_s += timed(spans, "core.reduced_build", parent,
                             [&] { built = problem_->build_reduced(); });
    layers->build_calls += 1;
    same_slots(false, 0);
    return;
  }
  const int n = plat.num_clusters();
  std::vector<int> needed(n, 0);
  for (const int id : ids) ++needed[loads_[id].home];
  bool grown = static_cast<int>(slots_per_cluster_.size()) != n;
  for (int c = 0; !grown && c < n; ++c) grown = needed[c] > slots_per_cluster_[c];
  if (grown) {
    if (static_cast<int>(slots_per_cluster_.size()) != n) slots_per_cluster_.assign(n, 1);
    for (int c = 0; c < n; ++c)
      if (needed[c] > slots_per_cluster_[c])
        slots_per_cluster_[c] = std::max(needed[c], 2 * slots_per_cluster_[c]);
    int total = 0;
    for (int c = 0; c < n; ++c) total += slots_per_cluster_[c];
    slot_app_.assign(total, -1);
    slot_of_.clear();
    problem_.reset();
    reduced_.reset();
  }
  std::vector<int> base(n, 0);
  for (int c = 1; c < n; ++c) base[c] = base[c - 1] + slots_per_cluster_[c - 1];
  same_slots(grown, static_cast<int>(slot_app_.size()));
  std::map<int, char> present;
  for (const int id : ids) present[id] = 1;
  for (std::size_t s = 0; s < slot_app_.size(); ++s)
    if (slot_app_[s] >= 0 && !present.count(slot_app_[s])) {
      slot_of_.erase(slot_app_[s]);
      slot_app_[s] = -1;
    }
  for (const int id : ids) {
    if (slot_of_.count(id)) continue;
    const int c = loads_[id].home;
    for (int s = base[c]; s < base[c] + slots_per_cluster_[c]; ++s)
      if (slot_app_[s] < 0) {
        slot_app_[s] = id;
        slot_of_[id] = s;
        break;
      }
  }
  std::vector<double> weights(slot_app_.size(), 0.0);
  for (const int id : ids) weights[slot_of_[id]] = loads_[id].payoff;
  layers->problem_s += timed(spans, "core.problem", parent, [&] {
    if (!problem_) {
      dls::core::LoadSet slots;
      for (int c = 0; c < n; ++c)
        for (int s = 0; s < slots_per_cluster_[c]; ++s) {
          dls::core::LoadSpec spec;
          spec.source = c;
          spec.weight = weights[base[c] + s];
          slots.loads.push_back(spec);
        }
      problem_.emplace(plat, std::move(slots), dls::core::Objective::Sum);
    } else {
      problem_ = problem_->with_load_weights(weights);
    }
  });
  layers->problem_calls += 1;
  if (!reduced_) {
    layers->build_s += timed(spans, "core.reduced_build", parent,
                             [&] { reduced_ = problem_->build_reduced(); });
    layers->build_calls += 1;
  } else {
    layers->patch_s += timed(spans, "core.reduced_patch", parent,
                             [&] { problem_->update_reduced_payoffs(*reduced_); });
    layers->patch_calls += 1;
  }
}

void ServeInProcess::shadow_step(const dls::dynamics::PlatformEvent* ev,
                                 dls::dynamics::ChangeScope scope, bool rescheduled,
                                 int op_span) {
  using dls::dynamics::ChangeScope;
  if (ev != nullptr) {
    const LayerCounts c0 = LayerCounts::read();
    const double t = timed(spans, "dynamics.apply", op_span,
                           [&] { (void)shadow_dyn_->apply(*ev); });
    layers->apply_s += t;
    layers->attributed_s += t;
    layers->apply_calls += 1;
    layers->counts.add(LayerCounts::read() - c0);
    if (scope == ChangeScope::Capacity) shadow_->platform_capacity_changed();
    if (scope == ChangeScope::Topology) shadow_->platform_topology_changed();
    // The rescheduler drops the same cached state.
    if (scope != ChangeScope::None) {
      problem_.reset();
      reduced_.reset();
    }
    if (scope == ChangeScope::Topology) slots_per_cluster_.clear();
  }
  if (!rescheduled || engine_->active_ids().empty()) return;
  std::vector<dls::online::ActiveLoad> active;
  for (const int id : engine_->active_ids())
    active.push_back({id, loads_[id].home, loads_[id].payoff});
  const LayerCounts c0 = LayerCounts::read();
  const double t = timed(spans, "online.reschedule", op_span,
                         [&] { (void)shadow_->reschedule(active); });
  const LayerCounts d = LayerCounts::read() - c0;
  layers->resched_s += t;
  layers->attributed_s += t;
  layers->resched_calls += 1;
  layers->counts.add(d);
  layers->add_lp(d);
  core_replica(op_span, d.slot_grows);
}

// ---- offline_sum: the paper's §6 case -------------------------------------------

class OfflineSum : public Workload {
public:
  static constexpr int kClusters = 95;
  static constexpr int kPool = 32;

  explicit OfflineSum(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    // Table-1 platforms at the top of the paper's K range, generated the
    // way the campaign runner fills its per-cell platform cache.
    // The grid cells are stratified, not sampled: platform i takes the
    // i-th entry of each Table-1 axis (cycled), so every run covers the
    // same spread of connectivity, heterogeneity and capacities, and
    // consecutive cases differ in connectivity. Like the serve platform,
    // the pool is part of the workload: fixed generator seeds draw the
    // topology and capacities within each cell, so every --seed runs the
    // same LPs' structure, and the seed draws the case payoffs.
    const dls::platform::Table1Grid grid;
    const auto t0 = Clock::now();
    for (int i = 0; i < kPool; ++i) {
      dls::platform::GeneratorParams gp;
      gp.num_clusters = kClusters;
      const auto pick = [i](const std::vector<double>& axis, int stride) {
        return axis[static_cast<std::size_t>(i / stride) % axis.size()];
      };
      gp.connectivity = pick(grid.connectivity, 1);
      gp.heterogeneity = pick(grid.heterogeneity, 8);
      gp.mean_gateway_bw = pick(grid.mean_gateway_bw, 3);
      gp.mean_backbone_bw = pick(grid.mean_backbone_bw, 5);
      gp.mean_max_connections = pick(grid.mean_max_connections, 7);
      dls::Rng rng(kPlatformSeed * 1000003ULL + static_cast<std::uint64_t>(i));
      pool_.push_back(dls::platform::generate_platform(gp, rng));
    }
    generate_ms_ = since(t0) * 1e3 / kPool;
  }

  double op() override {
    const int c = case_++;
    const dls::platform::Platform& plat = pool_[static_cast<std::size_t>(c % kPool)];
    dls::exp::CaseConfig cfg;
    cfg.objective = dls::core::Objective::Sum;
    cfg.seed = seed_ * 7919ULL + static_cast<std::uint64_t>(c) + 1;
    const int op_span = spans != nullptr ? spans->begin("exp.run_case", -1) : -1;
    const auto t0 = Clock::now();
    const dls::exp::CaseResult r = dls::exp::run_case(cfg, plat);
    const double dt = since(t0);
    if (spans != nullptr) spans->end(op_span);
    if (!r.ok) throw std::runtime_error("offline: run_case reported a failed LP");
    require_ok(perfbench::check_ordering(r.g, r.lpr, r.lprg, r.lp, 1e-7), "offline");

    const bool sampled = layers != nullptr || c % 8 == 0;
    if (!sampled) return dt;
    // Independent feasibility and objective of what G and LPRG return
    // from the core:: calls on the same case.
    dls::Rng rng(cfg.seed);
    std::vector<double> payoffs(plat.num_clusters());
    for (double& p : payoffs) p = rng.uniform(1.0 - cfg.payoff_spread, 1.0 + cfg.payoff_spread);
    std::optional<dls::core::SteadyStateProblem> problem;
    std::optional<dls::core::HeuristicResult> g, lprg;
    double t_problem = timed(spans, "core.problem", op_span, [&] {
      problem.emplace(plat, payoffs, dls::core::Objective::Sum);
    });
    if (layers != nullptr) {
      LayerSums& L = *layers;
      L.ops += 1;
      L.op_s += dt;
      L.problem_s += t_problem;
      L.problem_calls += 1;
      L.build_s += timed(spans, "core.reduced_build", op_span,
                         [&] { (void)problem->build_reduced(); });
      L.build_calls += 1;
      auto lp_call = [&](const char* name, auto&& f) {
        const LayerCounts c0 = LayerCounts::read();
        const double t = timed(spans, name, op_span, f);
        const LayerCounts d = LayerCounts::read() - c0;
        L.counts.add(d);
        L.add_lp(d);
        return t;
      };
      const double t_bound =
          lp_call("core.lp_bound", [&] { (void)dls::core::lp_upper_bound(*problem); });
      const double t_g = timed(spans, "core.greedy", op_span,
                               [&] { g = dls::core::run_greedy(*problem); });
      const double t_lpr =
          lp_call("core.lpr", [&] { (void)dls::core::run_lpr(*problem); });
      const double t_lprg =
          lp_call("core.lprg", [&] { lprg = dls::core::run_lprg(*problem); });
      L.greedy_s += t_g;
      L.greedy_calls += 1;
      L.round_s += t_lprg - t_bound;
      L.round_calls += 1;
      L.attributed_s += t_problem + t_bound + t_g + t_lpr + t_lprg;
    } else {
      g = dls::core::run_greedy(*problem);
      lprg = dls::core::run_lprg(*problem);
    }
    require_ok(perfbench::check_allocation(plat, g->allocation, 1e-7), "offline G");
    require_ok(perfbench::check_allocation(plat, lprg->allocation, 1e-7), "offline LPRG");
    require_ok(perfbench::check_close(perfbench::sum_objective(payoffs, g->allocation),
                                      r.g, 1e-9, "G objective"),
               "offline");
    require_ok(perfbench::check_close(perfbench::sum_objective(payoffs, lprg->allocation),
                                      r.lprg, 1e-9, "LPRG objective"),
               "offline");
    return dt;
  }

  void enable_shadows() override { layers->generate_ms = generate_ms_; }
  /// Eight cases of the heterogeneity-0.4 stratum (platforms 8-15, whose
  /// cases cost about the median): cases start there, so measured rounds
  /// still cover every cell the same number of times.
  [[nodiscard]] long warmup_ops() const override { return 8; }
  [[nodiscard]] long round() const override { return kPool; }
  /// Four rounds, so op_p90_ms always has at least ten cases beyond it.
  [[nodiscard]] long min_ops() const override { return 4 * kPool; }

private:
  std::uint64_t seed_;
  std::vector<dls::platform::Platform> pool_;
  int case_ = 8;  ///< the warm-up's first case (see warmup_ops)
  double generate_ms_ = 0;
};

// ---- driver ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

std::unique_ptr<Workload> make(const Args& a) {
  if (a.workload == "serve_sum")
    return std::make_unique<ServeInProcess>(a.seed, dls::core::MultiObjective::WeightedSum);
  if (a.workload == "serve_maxmin")
    return std::make_unique<ServeInProcess>(a.seed, dls::core::MultiObjective::MaxMin);
  if (a.workload == "offline_sum") return std::make_unique<OfflineSum>(a.seed);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

struct Phase {
  std::vector<double> op_s;
  double wall_s = 0;  ///< the phase's whole time, the benchmark's own work included
  long attempted = 0, failed = 0;
  bool correct = true;
  std::string error;

  [[nodiscard]] bool ok() const { return correct && failed == 0; }
};

/// Runs ops until `seconds` of wall time passed (and at least `min_ops`
/// ops, in whole rounds) or `max_ops` ops ran.
Phase run_ops(Workload& w, double seconds, long max_ops, long min_ops) {
  Phase ph;
  const auto t0 = Clock::now();
  const long round = w.round();
  while ((since(t0) < seconds || ph.attempted % round != 0 || ph.attempted < min_ops) &&
         (max_ops < 0 || ph.attempted < max_ops)) {
    try {
      const double dt = w.op();
      if (dt < 0) continue;  // the stream produced no op (nothing to cancel)
      ++ph.attempted;
      ph.op_s.push_back(dt);
    } catch (const Failure& f) {
      ++ph.attempted;
      ph.correct = false;
      ph.error = f.what();
      break;
    } catch (const std::exception& e) {
      ++ph.attempted;
      ++ph.failed;
      ph.error = e.what();
      break;  // a failed op leaves the stream state unknown
    }
  }
  ph.wall_s = since(t0);
  return ph;
}

/// Set-up: the workload's own set-up, then its warm-up ops.
Phase set_up(Workload& w) {
  w.setup();
  return run_ops(w, 0.0, w.warmup_ops(), w.warmup_ops());
}

/// Folds `ph`'s op counts and verdict into `r` (and reports its error).
void tally(RunResult& r, const Phase& ph) {
  r.correct = r.correct && ph.correct;
  r.attempted += ph.attempted;
  r.failed += ph.failed;
  if (!ph.error.empty()) std::cerr << "perfbench: " << ph.error << "\n";
}

int run(const Args& a, Clock::time_point process_start) {
  RunResult result;
  if (!a.trace) {
    std::unique_ptr<Workload> w = make(a);
    const Phase warm = set_up(*w);
    // One cold set-up, timed from the start of the process.
    const double setup_s = since(process_start);
    tally(result, warm);
    Phase ph;
    if (warm.ok()) ph = run_ops(*w, a.seconds, -1, w->min_ops());
    tally(result, ph);
    double busy = 0;
    for (double d : ph.op_s) busy += d;
    result.metrics = {
        {"op_p50_ms", "ms", quantile(ph.op_s, 0.5) * 1e3},
        {"op_p90_ms", "ms", quantile(ph.op_s, 0.9) * 1e3},
        {"ops_per_s", "ops/s", ratio(static_cast<double>(ph.op_s.size()), busy)},
        {"setup_s", "s", setup_s},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
    if (auto* s = dynamic_cast<ServeInProcess*>(w.get())) {
      std::cerr << "op mix:";
      for (const auto& [k, v] : s->mix) std::cerr << " " << k << "=" << v;
      const auto& c = s->counters();
      std::cerr << "; solves cold=" << c.cold_solves
                << " warm=" << c.warm_solves - c.repaired_solves
                << " repaired=" << c.repaired_solves
                << "; mean active="
                << s->active_sum / static_cast<double>(warm.attempted + ph.attempted)
                << "; virtual time=" << s->vt() << " (warm-up included)\n";
    }
    print_result(result);
    return 0;
  }

  // Traced: an untraced reference pass, then the same ops traced.
  Phase ref;
  {
    std::unique_ptr<Workload> w = make(a);
    const Phase warm = set_up(*w);
    tally(result, warm);
    if (warm.ok()) ref = run_ops(*w, a.seconds / 3.0, -1, 0);
    tally(result, ref);
  }
  LayerSums layers;
  Spans spans;
  Phase traced;
  {
    std::unique_ptr<Workload> w = make(a);
    w->setup();
    // The shadows follow the warm-up too; its layer sums are dropped.
    LayerSums warm_layers;
    w->layers = &warm_layers;
    w->enable_shadows();
    const Phase warm = run_ops(*w, 0.0, w->warmup_ops(), w->warmup_ops());
    tally(result, warm);
    if (warm.ok() && ref.ok()) {
      layers.parse_ms = warm_layers.parse_ms;
      layers.generate_ms = warm_layers.generate_ms;
      w->spans = &spans;
      w->layers = &layers;
      traced = run_ops(*w, 1e9, static_cast<long>(ref.op_s.size()), 0);
      tally(result, traced);
    }
  }
  // What tracing costs: ops per second of the phases' whole time (the
  // benchmark's checks included on both sides; spans, shadow calls and
  // registry reads on the traced side).
  const double overhead =
      ratio(ratio(static_cast<double>(traced.op_s.size()), traced.wall_s),
            ratio(static_cast<double>(ref.op_s.size()), ref.wall_s));
  if (!a.spans.empty()) spans.write(a.spans);
  result.metrics = layer_metrics(layers, overhead);
  print_result(result);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--spans") a.spans = v;
    else {
      std::cerr << "perfbench: unknown option " << k << "\n";
      return 2;
    }
  }
  try {
    return run(a, process_start);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
