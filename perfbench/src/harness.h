// Benchmark harness: the benchmark workloads, and one experiment
// driven through the same public calls runExperiment() makes (system
// constructor, warmup, run, energy evaluation), each timed from here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "obs/selfprof.h"

namespace perfbench {

/// One benchmark workload: an input stream run under several protocols
/// and chip counts, one experiment each, always in this order.
struct BenchWorkload {
  std::string name;
  std::string why;
  std::vector<eecc::ExperimentConfig> experiments;
};

/// The experiment's protocol, with "@<n>chips" appended for a scale-out
/// experiment: unique within a workload, and free of spaces.
std::string experimentName(const eecc::ExperimentConfig& cfg);

/// Cycle budgets of every experiment. The default is the figure benches'
/// (bench::warmupFor / bench::windowFor); the self-test shrinks them.
struct Budget {
  eecc::Tick warmup = 0;  ///< 0 = bench::warmupFor(workload).
  eecc::Tick window = 0;  ///< 0 = bench::windowFor().
};

std::vector<BenchWorkload> benchWorkloads(std::uint64_t seed,
                                          const Budget& budget = {});

/// Host seconds since process start on the steady clock (span timestamps).
double nowS();

/// Host-time breakdown of one experiment. Absolute `*At` fields are
/// nowS() readings; the rest are durations in seconds.
struct Timing {
  double setupAt = 0, warmupAt = 0, windowAt = 0, energyAt = 0, endAt = 0;
  double setupS() const { return warmupAt - setupAt; }
  double warmupS() const { return windowAt - warmupAt; }
  double windowS() const { return energyAt - windowAt; }
  double energyS() const { return endAt - energyAt; }
  double wallS() const { return endAt - setupAt; }

  double workloadBuildS = 0;  ///< Workload constructor (traced, 1-chip).
  std::uint64_t windowEvents = 0;  ///< Kernel events in the window.
  /// Simulated warmup + window cycles, summed over chips.
  std::uint64_t simCycles = 0;

  // Traced runs only.
  bool traced = false;
  std::uint64_t nextCalls = 0;  ///< OpSource::next calls in the window.
  double nextS = 0;             ///< Host seconds inside them.
  std::vector<eecc::SelfProfiler::Row> prof;  ///< Window self-profile.
  double profWallS = 0;
};

struct Timed {
  eecc::ExperimentResult result;
  Timing t;
};

/// Runs one experiment through the public calls runExperiment makes.
/// Untraced: the same constructor runExperiment uses. Traced: the
/// Workload is built separately and handed to the OpSource constructor
/// behind a timing decorator, and the self-profiler is installed around
/// the window. Both produce the result runExperiment would.
Timed runTimed(const eecc::ExperimentConfig& cfg, bool traced);

/// Host seconds to construct (and not run) the experiment's system.
double setupOnlyS(const eecc::ExperimentConfig& cfg);

/// 16-hex-digit FNV-1a digest of every simulated statistic of a result:
/// cycles, ops, all ProtocolStats / NocStats / CacheEnergyEvents fields,
/// dynamic power and the scale-out counters. Host-side numbers (kernel
/// event count, self-profile) are left out.
std::string digestOf(const eecc::ExperimentResult& r);

}  // namespace perfbench
