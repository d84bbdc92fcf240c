// eecc_perfbench — the simulator's end-to-end and per-layer benchmark.
//
//   eecc_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--pins FILE] [--spans FILE]
//                  [--git-commit C] [--git-dirty D]
//   eecc_perfbench --pin [--seed N]      print runExperiment digests
//   eecc_perfbench --selftest            tiny-window self-test
//
// A run executes the workload's experiments one at a time, in rounds,
// until --seconds is spent, and prints every metric by name with its
// unit; the last stdout line is one JSON object (correct, attempted,
// failed, metrics). --trace 0 reports the end-to-end metrics; --trace 1
// alternates untraced and traced rounds and reports the per-layer split.
// perfbench/README.md documents every metric.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench/bench_util.h"
#include "harness.h"
#include "scaleout/server.h"
#include "spans.h"

namespace perfbench {
namespace {

using eecc::ExperimentConfig;
using eecc::ExperimentResult;
using eecc::ProtocolKind;

/// Whole rounds an untraced run always makes, so every experiment has at
/// least this many samples of each host time.
constexpr int kMinRounds = 2;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Pinned digests keyed "workload experiment seed".
using Pins = std::map<std::string, std::string>;

std::string pinKey(const std::string& workload, const ExperimentConfig& cfg) {
  return workload + " " + experimentName(cfg) + " " +
         std::to_string(cfg.seed);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

double peakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spansPath;
  std::string gitCommit = "unknown";
  std::string gitDirty = "unknown";
};

/// Everything a run learned, ready to print.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checksOk = true;  ///< Reconciliation and sanity checks.
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  bool correct() const { return failed == 0 && checksOk; }
};

/// Per-round sums over the workload's experiments.
struct RoundSums {
  int experiments = 0;  ///< Experiments that ran to a result.
  double wallS = 0, windowS = 0, warmupS = 0;
  std::uint64_t ops = 0, windowEvents = 0, simCycles = 0;
  std::map<ProtocolKind, double> windowByProtocol;  ///< Single-chip only.
  double scaleoutSetupS = 0, scaleoutWindowS = 0;   ///< Multi-chip only.
  // Traced rounds only.
  double nextS = 0, buildS = 0;
  std::uint64_t nextCalls = 0;
  std::map<std::string, double> selfS;          ///< By leaf section.
  std::map<std::string, std::uint64_t> calls;   ///< By leaf section.
};

/// Adds one experiment's self-profile rows to `into` by leaf section
/// (the last frame of each call path: exclusive time of that section).
void addProfile(const Timing& t, RoundSums& into) {
  for (const eecc::SelfProfiler::Row& row : t.prof) {
    const auto semi = row.path.rfind(';');
    const std::string leaf =
        semi == std::string::npos ? row.path : row.path.substr(semi + 1);
    into.selfS[leaf] += static_cast<double>(row.selfNs) * 1e-9;
    into.calls[leaf] += row.calls;
  }
}

class Runner {
 public:
  Runner(const BenchWorkload& w, const Options& opt, const Pins& pins,
         SpanLog* spans)
      : w_(w), opt_(opt), pins_(pins), spans_(spans) {}

  Outcome run();

 private:
  /// Untraced host times of one experiment, one entry per run of it.
  struct Samples {
    std::vector<double> setup, busy, window, wall;  ///< busy: warmup+run.
    std::uint64_t simCycles = 0;
    double lastCost = 0;  ///< Host s of its latest setup sample and run.
  };

  /// One pass over the experiments in order. It stops before an
  /// experiment that is expected to end after `deadline`; returns the
  /// number of experiments attempted.
  std::size_t round(bool traced, RoundSums& sums, double deadline);
  void check(const ExperimentConfig& cfg, const ExperimentResult& r);
  void recordSpans(const ExperimentConfig& cfg, const Timing& t, int round);
  void endToEnd();
  void perLayer(const std::vector<RoundSums>& plain,
                const std::vector<RoundSums>& traced);

  const BenchWorkload& w_;
  const Options& opt_;
  const Pins& pins_;
  SpanLog* spans_;
  Outcome out_;
  std::map<std::string, std::string> seen_;  ///< Unpinned: first digest.
  std::vector<Samples> samples_;        ///< Per experiment, --trace 0 only.
  std::vector<ExperimentResult> last_;  ///< Latest result per experiment.
  int rounds_ = 0;
};

void Runner::check(const ExperimentConfig& cfg, const ExperimentResult& r) {
  const std::string key = pinKey(w_.name, cfg);
  const std::string digest = digestOf(r);
  const auto pin = pins_.find(key);
  std::string verdict;
  bool ok = r.ops > 0;
  if (pin != pins_.end()) {
    ok = ok && digest == pin->second;
    verdict = digest == pin->second ? "matches pin"
                                    : "MISMATCH, pinned " + pin->second;
  } else {
    const auto [it, fresh] = seen_.emplace(key, digest);
    ok = ok && it->second == digest;
    verdict = fresh              ? "unpinned seed, checked run to run"
              : it->second == digest ? "equal to first round"
                                     : "MISMATCH with first round " +
                                           it->second;
  }
  if (!ok) ++out_.failed;
  if (!ok || rounds_ == 0)
    std::printf("digest %s round %d: %s %s%s\n", key.c_str(), rounds_ + 1,
                digest.c_str(), verdict.c_str(),
                r.ops > 0 ? "" : " (no ops completed)");
}

void Runner::recordSpans(const ExperimentConfig& cfg, const Timing& t,
                         int round) {
  if (spans_ == nullptr) return;
  const std::string exp = w_.name + "/" + experimentName(cfg);
  auto add = [&](std::string name, const char* cat, double at, double dur,
                 int tid, std::uint64_t parent) {
    Span s;
    s.name = std::move(name);
    s.cat = cat;
    s.startS = at;
    s.durS = dur;
    s.tid = tid;
    s.parent = parent;
    s.text = {{"experiment", exp},
              {"round_kind", t.traced ? "traced" : "untraced"}};
    s.nums = {{"round", round}};
    return spans_->add(std::move(s));
  };
  const int tid = t.traced ? 2 : 1;
  const std::uint64_t top =
      add(exp, "experiment", t.setupAt, t.wallS(), tid, 0);
  add("setup", "phase", t.setupAt, t.setupS(), tid, top);
  add("warmup", "phase", t.warmupAt, t.warmupS(), tid, top);
  const std::uint64_t window =
      add("window", "phase", t.windowAt, t.windowS(), tid, top);
  add("energy", "phase", t.energyAt, t.energyS(), tid, top);
  if (!t.traced) return;
  // The window's host time split by module, laid end to end from the
  // window start: aggregated self time, not real intervals.
  RoundSums one;
  addProfile(t, one);
  const std::pair<const char*, double> split[] = {
      {"workload.next", t.nextS},
      {"sim.pop", one.selfS["kernel.pop"]},
      {"protocols.handler", one.selfS["kernel.dispatch"] - t.nextS},
      {"noc.send", one.selfS["noc.send"]},
      {"noc.drain", one.selfS["noc.drain"]},
      {"protocols.table", one.selfS["table.interpret"]},
      {"cache.lookup", one.selfS["cache.lookup"]},
      {"cache.victim", one.selfS["cache.victim"]}};
  double at = t.windowAt;
  for (const auto& [name, dur] : split) {
    add(name, "layer", at, dur, 3, window);
    at += dur;
  }
  add("obs.unattributed", "layer", at, t.windowAt + t.windowS() - at, 3,
      window);
}

std::size_t Runner::round(bool traced, RoundSums& sums, double deadline) {
  // A --trace 0 run also constructs each experiment once more before
  // running it, so set-up is sampled across the whole run.
  const bool sample = !opt_.trace;
  double firstAt = -1, lastEnd = 0;
  std::size_t attempted = 0;
  last_.resize(w_.experiments.size());
  samples_.resize(w_.experiments.size());
  for (std::size_t i = 0; i < w_.experiments.size(); ++i) {
    const ExperimentConfig& cfg = w_.experiments[i];
    Samples& s = samples_[i];
    const double t0 = nowS();
    if (t0 + s.lastCost > deadline) break;
    ++attempted;
    ++out_.attempted;
    Timed run;
    try {
      if (sample) s.setup.push_back(setupOnlyS(cfg));
      run = runTimed(cfg, traced);
    } catch (const std::exception& e) {
      ++out_.failed;
      std::printf("experiment %s %s seed %llu threw: %s\n", w_.name.c_str(),
                  experimentName(cfg).c_str(),
                  static_cast<unsigned long long>(cfg.seed), e.what());
      continue;
    }
    check(cfg, run.result);
    const Timing& t = run.t;
    if (firstAt < 0) firstAt = t.setupAt;
    lastEnd = t.endAt;
    ++sums.experiments;
    sums.ops += run.result.ops;
    sums.simCycles += t.simCycles;
    sums.windowS += t.windowS();
    sums.warmupS += t.warmupS();
    sums.windowEvents += t.windowEvents;
    if (cfg.scaleout.active()) {
      sums.scaleoutSetupS += t.setupS();
      sums.scaleoutWindowS += t.windowS();
    } else {
      sums.windowByProtocol[cfg.protocol] += t.windowS();
    }
    if (sample) {
      s.setup.push_back(t.setupS());
      s.busy.push_back(t.warmupS() + t.windowS());
      s.window.push_back(t.windowS());
      s.wall.push_back(t.wallS());
      s.simCycles = t.simCycles;
      s.lastCost = nowS() - t0;
    }
    if (traced) {
      sums.nextS += t.nextS;
      sums.nextCalls += t.nextCalls;
      sums.buildS += t.workloadBuildS;
      addProfile(t, sums);
    }
    recordSpans(cfg, t, rounds_ + 1);
    last_[i] = std::move(run.result);
  }
  if (attempted == 0) return 0;
  ++rounds_;
  if (firstAt < 0) return attempted;
  sums.wallS = lastEnd - firstAt;
  std::printf("round %d (%s, %zu of %zu experiments): wall %.3f s, "
              "window %.3f s, %.6g ops/s\n",
              rounds_, traced ? "traced" : "untraced", attempted,
              w_.experiments.size(), sums.wallS, sums.windowS,
              static_cast<double>(sums.ops) / sums.windowS);
  return attempted;
}

Outcome Runner::run() {
  const double start = nowS();
  const double never = std::numeric_limits<double>::infinity();
  std::vector<RoundSums> plain, traced;
  if (!opt_.trace) {
    // One untimed construction per experiment first, so first-touch page
    // faults and allocator growth are not timed. Then whole rounds, and
    // after kMinRounds the experiments go on in order while the next one
    // is expected to end inside the budget.
    for (const ExperimentConfig& cfg : w_.experiments) setupOnlyS(cfg);
    for (int made = 0;; ++made) {
      RoundSums a;
      const std::size_t attempted =
          round(false, a, made < kMinRounds ? never : start + opt_.seconds);
      if (a.experiments > 0) plain.push_back(a);
      if (attempted < w_.experiments.size()) break;
    }
  } else {
    // Whole untraced + traced pairs while the next pair is expected to
    // end inside the budget; at least one pair.
    double lastCost = 0;
    do {
      const double t0 = nowS();
      RoundSums a, b;
      round(false, a, never);
      if (a.experiments > 0) plain.push_back(a);
      round(true, b, never);
      if (b.experiments > 0) traced.push_back(b);
      lastCost = nowS() - t0;
    } while (nowS() - start + lastCost <= opt_.seconds);
  }

  if (plain.empty() || (opt_.trace && traced.empty())) {
    out_.checksOk = false;
    out_.notes.push_back("no round completed");
    return out_;
  }
  if (opt_.trace) perLayer(plain, traced);
  else endToEnd();
  out_.notes.push_back(std::to_string(plain.size()) + " untraced and " +
                       std::to_string(traced.size()) +
                       " traced rounds (an untraced run's last round may "
                       "be partial)");
  return out_;
}

template <class F>
double medianOf(const std::vector<RoundSums>& rounds, F f) {
  std::vector<double> v;
  for (const RoundSums& r : rounds) v.push_back(f(r));
  return median(v);
}

/// Every host time is a median over the experiment's untraced runs,
/// summed over the workload's experiments: one round at the run's
/// typical speed. A partial last round adds samples and no bias.
/// Throughputs divide one round's simulated work by those sums.
void Runner::endToEnd() {
  double ops = 0, cycles = 0, busy = 0, window = 0, wall = 0, setup = 0;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Samples& s = samples_[i];
    if (s.wall.empty()) continue;  // never ran to a result: counted failed
    ops += static_cast<double>(last_[i].ops);
    cycles += static_cast<double>(s.simCycles);
    busy += median(s.busy);
    window += median(s.window);
    wall += median(s.wall);
    setup += median(s.setup);
  }
  auto& m = out_.metrics;
  m.push_back({"ops_per_s", ops / window, "ops/s"});
  m.push_back({"cycles_per_s", cycles / busy, "cycles/s"});
  m.push_back({"wall_s", wall, "s"});
  m.push_back({"setup_s", setup, "s"});
  m.push_back({"peak_rss_mb", peakRssMiB(), "MiB"});
}

void Runner::perLayer(const std::vector<RoundSums>& plain,
                      const std::vector<RoundSums>& traced) {
  auto P = [&](auto f) { return medianOf(plain, f); };
  auto T = [&](auto f) { return medianOf(traced, f); };
  auto self = [](const char* s) {
    return [s](const RoundSums& r) {
      const auto it = r.selfS.find(s);
      return it == r.selfS.end() ? 0.0 : it->second;
    };
  };
  auto calls = [](const RoundSums& r, const char* s) {
    const auto it = r.calls.find(s);
    return it == r.calls.end() ? 0.0 : static_cast<double>(it->second);
  };

  // Simulated counts repeat exactly, so the latest round's results do.
  eecc::ProtocolStats st;
  eecc::NocStats noc;
  std::uint64_t flits = 0, fetches = 0, migrations = 0, cows = 0,
                boundaries = 0;
  for (const ExperimentResult& r : last_) {
    eecc::mergeProtocolStats(st, r.stats);
    noc.merge(r.noc);
    flits += r.interchip.flits;
    fetches += r.interchip.remoteFetches;
    migrations += r.interchip.migrations;
    boundaries += r.churnApplied;
    if (r.scaleout) cows += r.scaleout->cowEvents;
  }
  const RoundSums& any = traced.back();
  bool singleChip = false, multiChip = false;
  for (const ExperimentConfig& cfg : w_.experiments)
    (cfg.scaleout.active() ? multiChip : singleChip) = true;

  const double tracedWindow = T([](const RoundSums& r) { return r.windowS; });
  const double plainWindow = P([](const RoundSums& r) { return r.windowS; });
  const double nextS = T([](const RoundSums& r) { return r.nextS; });
  const double pop = T(self("kernel.pop"));
  const double dispatch = T(self("kernel.dispatch"));
  const double send = T(self("noc.send")), drain = T(self("noc.drain"));
  const double table = T(self("table.interpret"));
  const double lookup = T(self("cache.lookup")),
               victim = T(self("cache.victim"));
  const double handler = dispatch - nextS;
  // Reconciled round by round: the self times of all sections (which
  // include workload.next_s, inside kernel.dispatch) fit in the window.
  auto selfTotal = [](const RoundSums& r) {
    double sum = 0;
    for (const auto& [section, secs] : r.selfS) sum += secs;
    return sum;
  };
  bool reconciled = true;
  for (const RoundSums& r : traced)
    reconciled = reconciled && selfTotal(r) <= r.windowS + 1e-9 &&
                 self("kernel.dispatch")(r) >= r.nextS;
  const double attributed =
      T([&](const RoundSums& r) { return selfTotal(r) - r.nextS; });
  const double unattributed =
      T([&](const RoundSums& r) { return r.windowS - selfTotal(r); });

  const auto pred = [&](eecc::MissClass c) {
    return static_cast<double>(st.missCount(c));
  };
  const double predHits = pred(eecc::MissClass::PredOwnerHit) +
                          pred(eecc::MissClass::PredProviderHit);
  const double predicted = predHits + pred(eecc::MissClass::PredMiss);
  const double accesses = static_cast<double>(st.l1Accesses());
  const double lookups = calls(any, "cache.lookup");
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  auto& m = out_.metrics;
  auto add = [&m](std::string n, double v, const char* u) {
    m.push_back({std::move(n), v, u});
  };
  add("workload.next_calls", static_cast<double>(any.nextCalls), "count");
  add("workload.next_s", nextS, "s");
  // The decorator sees the single-chip experiments only.
  const double singleChipWindow = T([](const RoundSums& r) {
    return r.windowS - r.scaleoutWindowS;
  });
  add("workload.share", ratio(nextS, singleChipWindow), "ratio");
  add("workload.build_s", T([](const RoundSums& r) { return r.buildS; }),
      "s");
  add("sim.events", static_cast<double>(any.windowEvents), "count");
  add("sim.events_per_s",
      P([](const RoundSums& r) {
        return static_cast<double>(r.windowEvents) / r.windowS;
      }),
      "events/s");
  add("sim.pop_s", pop, "s");
  add("noc.messages", static_cast<double>(noc.messages), "count");
  add("noc.broadcasts", static_cast<double>(noc.broadcasts), "count");
  add("noc.link_flits", static_cast<double>(noc.linkFlits), "count");
  add("noc.contention_cyc", noc.contentionWait.mean(), "cyc");
  add("noc.send_s", send, "s");
  add("noc.drain_s", drain, "s");
  add("protocols.l1_misses", static_cast<double>(st.l1Misses()), "count");
  add("protocols.miss_latency_cyc", st.missLatency.mean(), "cyc");
  add("protocols.pred_hit_ratio", ratio(predHits, predicted), "ratio");
  add("protocols.pred_hits", predHits, "count");
  add("protocols.predicted", predicted, "count");
  add("protocols.table_calls", calls(any, "table.interpret"), "count");
  add("protocols.table_s", table, "s");
  add("protocols.handler_s", handler, "s");
  add("cache.lookups", lookups, "count");
  add("cache.lookup_s", lookup, "s");
  add("cache.victim_s", victim, "s");
  add("cache.l1_accesses", accesses, "count");
  add("cache.lookups_per_access", ratio(lookups, accesses), "ratio");
  add("cache.l1_hit_rate", accesses > 0 ? 1.0 - st.l1MissRate() : 0.0,
      "ratio");
  add("cache.l2_miss_rate", st.l2MissRate(), "ratio");
  add("core.ops", static_cast<double>(any.ops), "count");
  add("core.sim_cycles", static_cast<double>(any.simCycles), "count");
  add("core.warmup_s", P([](const RoundSums& r) { return r.warmupS; }), "s");
  add("core.window_s", plainWindow, "s");
  for (ProtocolKind k : eecc::allProtocolKinds())
    add(std::string("core.window_s.") + eecc::protocolName(k),
        P([k](const RoundSums& r) {
          const auto it = r.windowByProtocol.find(k);
          return it == r.windowByProtocol.end() ? 0.0 : it->second;
        }),
        "s");
  add("scaleout.build_s",
      P([](const RoundSums& r) { return r.scaleoutSetupS; }), "s");
  add("scaleout.run_s",
      P([](const RoundSums& r) { return r.scaleoutWindowS; }), "s");
  add("scaleout.boundaries", static_cast<double>(boundaries), "count");
  add("scaleout.interchip_flits", static_cast<double>(flits), "count");
  add("scaleout.remote_fetches", static_cast<double>(fetches), "count");
  add("scaleout.migrations", static_cast<double>(migrations), "count");
  add("scaleout.cow_events", static_cast<double>(cows), "count");
  add("obs.trace_overhead", ratio(tracedWindow, plainWindow), "ratio");
  add("obs.traced_window_s", tracedWindow, "s");
  add("obs.attributed_s", attributed, "s");
  add("obs.unattributed_s", unattributed, "s");

  if (!reconciled) {
    out_.checksOk = false;
    out_.notes.push_back(
        "RECONCILIATION FAILED: layer self times plus workload.next_s "
        "exceed the traced window");
  }
  std::ostringstream rec;
  rec << "reconciliation (medians over traced rounds): window "
      << tracedWindow << " s, attributed " << attributed
      << " s, workload.next " << nextS << " s, unattributed "
      << unattributed << " s";
  out_.notes.push_back(rec.str());
  if (multiChip)
    out_.notes.push_back(
        std::string(singleChip ? "workload.* cover the single-chip "
                                 "experiments only"
                               : "workload.* are 0") +
        ": ServerSystem builds its own per-chip sources, so no OpSource "
        "decorator can be attached; multi-chip generator time is inside "
        "protocols.handler_s");
  else
    out_.notes.push_back("scaleout.* are 0: no multi-chip experiment");
  if (predicted == 0)
    out_.notes.push_back(
        "protocols.pred_hit_ratio is 0: no predicted misses (0 of 0)");
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The final stdout line.
std::string resultJson(const Outcome& o) {
  std::string s = "{\"correct\": ";
  s += o.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(o.attempted);
  s += ", \"failed\": " + std::to_string(o.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    if (i) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}}";
}

std::vector<std::pair<std::string, std::string>> provenance(
    const Options& opt, const BenchWorkload& w) {
  const ExperimentConfig& cfg = w.experiments.front();
  return {{"compiler", PERFBENCH_COMPILER},
          {"build_type", PERFBENCH_BUILD_TYPE},
          {"cxx_flags", PERFBENCH_CXX_FLAGS},
          {"git_commit", opt.gitCommit},
          {"git_dirty", opt.gitDirty},
          {"nproc", std::to_string(std::thread::hardware_concurrency())},
          {"cpu", cpuModel()},
          {"warmup_cycles", std::to_string(cfg.warmupCycles)},
          {"window_cycles", std::to_string(cfg.windowCycles)},
          {"chips", std::to_string(cfg.scaleout.chips)},
          {"seed", std::to_string(opt.seed)},
          {"seconds", fmt(opt.seconds)},
          {"trace", opt.trace ? "1" : "0"}};
}

Outcome runWorkload(const BenchWorkload& w, const Options& opt,
                    const Pins& pins) {
  SpanLog spans;
  const bool writeSpans = opt.trace && !opt.spansPath.empty();
  std::printf("workload %s: %s\n", w.name.c_str(), w.why.c_str());
  for (const auto& [k, v] : provenance(opt, w)) {
    std::printf("provenance %s = %s\n", k.c_str(), v.c_str());
    spans.meta(k, v);
  }
  spans.meta("workload", w.name);
  spans.nameThread(1, "untraced rounds");
  spans.nameThread(2, "traced rounds");
  spans.nameThread(3, "traced window split by module (aggregated)");
  Runner runner(w, opt, pins, writeSpans ? &spans : nullptr);
  Outcome o = runner.run();
  for (const Metric& m : o.metrics)
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("fail_frac %.6g (%llu failed of %llu experiments)\n",
              o.attempted ? static_cast<double>(o.failed) /
                                static_cast<double>(o.attempted)
                          : 0.0,
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.attempted));
  for (const std::string& n : o.notes) std::printf("note %s\n", n.c_str());
  if (writeSpans) {
    if (spans.write(opt.spansPath))
      std::printf("spans written to %s\n", opt.spansPath.c_str());
    else
      std::printf("note could not write spans to %s\n",
                  opt.spansPath.c_str());
  }
  return o;
}

bool loadPins(const std::string& path, Pins& pins) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, protocol, seed, digest;
    if (!(ls >> workload >> protocol >> seed >> digest)) return false;
    pins[workload + " " + protocol + " " + seed] = digest;
  }
  return true;
}

/// Digests of every benchmark experiment at `seed` through runExperiment,
/// the path users run, in the pins file format.
void printPins(std::uint64_t seed) {
  for (const BenchWorkload& w : benchWorkloads(seed))
    for (const ExperimentConfig& cfg : w.experiments)
      std::printf("%s %s %llu %s\n", w.name.c_str(),
                  experimentName(cfg).c_str(),
                  static_cast<unsigned long long>(seed),
                  digestOf(eecc::runExperiment(cfg)).c_str());
}

/// Tiny-window self-test: every metric is emitted with a unit and a
/// well-formed name, clean digests pass, a corrupted pin fails, and the
/// traced run's digests equal the untraced run's (same pins, both pass).
int selftest() {
  const Budget tiny{4000, 4000};
  const std::regex nameRe("[A-Za-z0-9_.-]+");
  bool ok = true;
  auto expect = [&ok](bool cond, const std::string& what) {
    std::printf("selftest %s: %s\n", cond ? "ok" : "FAILED", what.c_str());
    ok = ok && cond;
  };
  for (const BenchWorkload& w : benchWorkloads(1, tiny)) {
    Pins pins;
    for (const ExperimentConfig& cfg : w.experiments)
      pins[pinKey(w.name, cfg)] =
          digestOf(eecc::runExperiment(cfg));
    for (bool trace : {false, true}) {
      Options opt;
      opt.workload = w.name;
      opt.seconds = 0;
      opt.trace = trace;
      const Outcome o = runWorkload(w, opt, pins);
      const std::string tag = w.name + (trace ? " traced" : " untraced");
      expect(o.correct() && o.failed == 0, tag + ": digests match pins");
      bool named = !o.metrics.empty();
      for (const Metric& m : o.metrics)
        named = named && std::regex_match(m.name, nameRe) && !m.unit.empty();
      expect(named, tag + ": every metric has a well-formed name and a unit");
      std::printf("selftest-result %s %d %s\n", w.name.c_str(), trace ? 1 : 0,
                  resultJson(o).c_str());
    }
    Pins bad = pins;
    std::string& victim = bad.begin()->second;
    victim.back() = victim.back() == '0' ? '1' : '0';
    Options opt;
    opt.workload = w.name;
    opt.seconds = 0;
    const Outcome o = runWorkload(w, opt, bad);
    const std::uint64_t rounds = o.attempted / w.experiments.size();
    expect(!o.correct() && o.failed == rounds,
           w.name + ": a corrupted pin counts as one failure per round");
  }
  std::printf("selftest %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: eecc_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--pins FILE] [--spans FILE]\n"
               "                      [--git-commit C] [--git-dirty D]\n"
               "       eecc_perfbench --pin [--seed N]\n"
               "       eecc_perfbench --selftest\n"
               "workloads:");
  for (const BenchWorkload& w : benchWorkloads(1))
    std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int main(int argc, char** argv) {
  if (eecc::bench::quickMode()) {
    std::fprintf(stderr,
                 "EECC_QUICK shrinks the pinned cycle budgets; unset it\n");
    return 2;
  }
  Options opt;
  std::string pinsPath;
  bool pin = false, self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") opt.workload = next();
    else if (a == "--seed") opt.seed = std::stoull(next());
    else if (a == "--seconds") opt.seconds = std::stod(next());
    else if (a == "--trace") opt.trace = next() == "1";
    else if (a == "--pins") pinsPath = next();
    else if (a == "--spans") opt.spansPath = next();
    else if (a == "--git-commit") opt.gitCommit = next();
    else if (a == "--git-dirty") opt.gitDirty = next();
    else if (a == "--pin") pin = true;
    else if (a == "--selftest") self = true;
    else return usage();
  }
  if (self) return selftest();
  if (pin) {
    printPins(opt.seed);
    return 0;
  }
  Pins pins;
  if (!pinsPath.empty() && !loadPins(pinsPath, pins)) {
    std::fprintf(stderr, "cannot read pins file %s\n", pinsPath.c_str());
    return 2;
  }
  for (const BenchWorkload& w : benchWorkloads(opt.seed))
    if (w.name == opt.workload) {
      const Outcome o = runWorkload(w, opt, pins);
      std::printf("%s\n", resultJson(o).c_str());
      return 0;
    }
  return usage();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eecc_perfbench: %s\n", e.what());
    return 2;
  }
}
