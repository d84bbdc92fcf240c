#include "harness.h"

#include <chrono>
#include <cstring>
#include <memory>

#include "bench/bench_util.h"
#include "scaleout/server.h"
#include "workload/profile.h"

namespace perfbench {

using namespace eecc;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/// The churn script of the 4-chip experiments: a shutdown, a live
/// migration, a CoW storm and a boot inside the 250k-cycle window.
constexpr const char* kChurn =
    "shutdown@20000;migrate@60000;storm@100000:len=40000;boot@160000";

ExperimentConfig makeCfg(const std::string& workload, ProtocolKind kind,
                         std::uint64_t seed, const Budget& budget) {
  ExperimentConfig cfg = bench::makeConfig(workload, kind);
  if (budget.warmup > 0) cfg.warmupCycles = budget.warmup;
  if (budget.window > 0) cfg.windowCycles = budget.window;
  cfg.seed = seed;
  return cfg;
}

/// Timing decorator over an owned Workload, handed to the
/// CmpSystem(cfg, kind, source) constructor: counts and times every
/// next() while enabled, otherwise forwards untouched.
class TimedWorkload : public OpSource {
 public:
  explicit TimedWorkload(std::unique_ptr<Workload> w)
      : workload_(std::move(w)) {}
  bool tileActive(NodeId tile) const override {
    return workload_->tileActive(tile);
  }
  MemOp next(NodeId tile) override {
    if (!enabled) return workload_->next(tile);
    const Clock::time_point t0 = Clock::now();
    const MemOp op = workload_->next(tile);
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    ++calls;
    return op;
  }
  const Workload& workload() const { return *workload_; }

  bool enabled = false;
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;

 private:
  std::unique_ptr<Workload> workload_;
};

void evaluateEnergy(const ExperimentConfig& cfg, ExperimentResult& r) {
  const EnergyModel energy(cfg.protocol, chipParamsOf(cfg.chip),
                           cfg.protocol == ProtocolKind::Directory
                               ? cfg.chip.dirSharingCode
                               : SharingCode::FullMap);
  r.cachePj = energy.cacheEnergy(r.events);
  r.nocPj = energy.nocEnergy(r.noc);
  r.cacheMw = EnergyModel::pjToMw(r.cachePj.total(), r.cycles);
  r.linkMw = EnergyModel::pjToMw(r.nocPj.linkPj, r.cycles);
  r.routingMw = EnergyModel::pjToMw(r.nocPj.routingPj, r.cycles);
  if (cfg.scaleout.active()) {
    r.interchipPj = static_cast<double>(r.interchip.flitHops) *
                    energy.flitLinkPj() * cfg.scaleout.link.energyPerFlitX;
    r.interchipMw = EnergyModel::pjToMw(r.interchipPj, r.cycles);
  }
}

void fillHeader(const ExperimentConfig& cfg, ExperimentResult& r) {
  r.workload = cfg.workloadName;
  r.protocol = cfg.protocol;
  r.altLayout = cfg.altLayout;
  r.seed = cfg.seed;
}

/// The single-chip half of runExperiment, phase by phase.
Timed runChip(const ExperimentConfig& cfg, bool traced) {
  Timed out;
  Timing& t = out.t;
  ExperimentResult& r = out.result;
  t.traced = traced;

  t.setupAt = nowS();
  const auto perVm = profiles::byWorkloadName(cfg.workloadName);
  const VmLayout layout =
      VmLayout::matched(cfg.chip, static_cast<std::uint32_t>(perVm.size()));
  std::unique_ptr<CmpSystem> system;
  TimedWorkload* source = nullptr;
  const Workload* workload = nullptr;
  if (traced) {
    const double b0 = nowS();
    auto w = std::make_unique<Workload>(cfg.chip, layout, perVm, cfg.seed,
                                        cfg.dedupEnabled);
    t.workloadBuildS = nowS() - b0;
    auto decorated = std::make_unique<TimedWorkload>(std::move(w));
    source = decorated.get();
    workload = &source->workload();
    system = std::make_unique<CmpSystem>(cfg.chip, cfg.protocol,
                                         std::move(decorated));
  } else {
    system = std::make_unique<CmpSystem>(cfg.chip, cfg.protocol, layout,
                                         perVm, cfg.seed, cfg.dedupEnabled);
    workload = &system->workload();
  }

  t.warmupAt = nowS();
  if (cfg.warmupCycles > 0) system->warmup(cfg.warmupCycles);
  const std::uint64_t events0 = system->events().executedEvents();

  SelfProfiler prof;
  if (traced) {
    source->enabled = true;
    prof.install();
  }
  t.windowAt = nowS();
  system->run(cfg.windowCycles);
  t.energyAt = nowS();
  if (traced) {
    prof.uninstall();
    source->enabled = false;
    t.nextCalls = source->calls;
    t.nextS = static_cast<double>(source->ns) * 1e-9;
    t.prof = prof.rows();
    t.profWallS = static_cast<double>(prof.wallNs()) * 1e-9;
  }
  t.windowEvents = system->events().executedEvents() - events0;

  fillHeader(cfg, r);
  r.cycles = system->cycles();
  r.ops = system->opsCompleted();
  r.throughput = system->throughput();
  r.simEvents = system->events().executedEvents();
  r.stats = system->protocol().stats();
  r.events = system->protocol().energyEvents();
  r.noc = system->network().stats();
  r.dedupSavedFraction = workload->pages().savedFraction();
  t.simCycles = cfg.warmupCycles + r.cycles;
  evaluateEnergy(cfg, r);
  t.endAt = nowS();
  return out;
}

/// The scale-out half (runScaleoutExperiment), phase by phase.
Timed runServer(const ExperimentConfig& cfg, bool traced) {
  Timed out;
  Timing& t = out.t;
  ExperimentResult& r = out.result;
  t.traced = traced;

  t.setupAt = nowS();
  ServerSystem server(cfg);
  t.warmupAt = nowS();
  if (cfg.warmupCycles > 0) server.warmup(cfg.warmupCycles);
  std::uint64_t events0 = 0;
  for (std::uint32_t c = 0; c < server.chips(); ++c)
    events0 += server.system(c).events().executedEvents();

  SelfProfiler prof;
  if (traced) prof.install();
  t.windowAt = nowS();
  server.run(cfg.windowCycles);
  t.energyAt = nowS();
  if (traced) {
    prof.uninstall();
    t.prof = prof.rows();
    t.profWallS = static_cast<double>(prof.wallNs()) * 1e-9;
  }

  fillHeader(cfg, r);
  r.chips = server.chips();
  r.cycles = cfg.windowCycles;
  auto detail = std::make_shared<ScaleoutDetail>();
  for (std::uint32_t c = 0; c < server.chips(); ++c) {
    CmpSystem& sys = server.system(c);
    ScaleoutChipSummary chip;
    chip.cycles = sys.cycles();
    chip.ops = sys.opsCompleted();
    chip.throughput = sys.throughput();
    chip.stats = sys.protocol().stats();
    chip.events = sys.protocol().energyEvents();
    chip.noc = sys.network().stats();
    r.ops += chip.ops;
    t.simCycles += cfg.warmupCycles + chip.cycles;
    r.simEvents += sys.events().executedEvents();
    mergeProtocolStats(r.stats, chip.stats);
    mergeEnergyEvents(r.events, chip.events);
    r.noc.merge(chip.noc);
    detail->chips.push_back(std::move(chip));
  }
  t.windowEvents = r.simEvents - events0;
  r.throughput = static_cast<double>(r.ops) / static_cast<double>(r.cycles);
  r.dedupSavedFraction = server.workload().pages().savedFraction();
  const VmLifecycle* life = server.lifecycle();
  r.churnApplied = life->applied();
  r.interchip = server.link().stats();
  detail->boots = life->boots();
  detail->shutdowns = life->shutdowns();
  detail->migrationsStarted = life->migrationsStarted();
  detail->migrationsCompleted = life->migrationsCompleted();
  detail->storms = life->storms();
  detail->skippedEvents = life->skipped();
  detail->totalVms = server.workload().vmCount();
  detail->cowEvents = server.workload().pages().cowEvents();
  detail->reclaimedPages = server.workload().pages().reclaimedPages();
  for (std::size_t row = 0; row < server.link().rows(); ++row) {
    detail->interchipRowFlits.push_back(server.link().rowFlits(row));
    detail->interchipRowMessages.push_back(server.link().rowMessages(row));
  }
  r.scaleout = detail;
  evaluateEnergy(cfg, r);
  t.endAt = nowS();
  return out;
}

/// FNV-1a over a sequence of 64-bit words.
class Digest {
 public:
  void u(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void d(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u(bits);
  }
  void acc(const Accumulator& a) {
    const Accumulator::State s = a.state();
    u(s.count);
    d(s.sum);
    d(s.mean);
    d(s.m2);
    d(s.min);
    d(s.max);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

double nowS() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

std::string experimentName(const ExperimentConfig& cfg) {
  std::string name = protocolName(cfg.protocol);
  if (cfg.scaleout.active())
    name += "@" + std::to_string(cfg.scaleout.chips) + "chips";
  return name;
}

std::vector<BenchWorkload> benchWorkloads(std::uint64_t seed,
                                          const Budget& budget) {
  using K = ProtocolKind;
  const std::vector<K> paper = {K::Directory, K::DiCo, K::DiCoProviders,
                                K::DiCoArin};
  auto grid = [&](const char* workload, const std::vector<K>& kinds) {
    std::vector<ExperimentConfig> cfgs;
    for (K k : kinds) cfgs.push_back(makeCfg(workload, k, seed, budget));
    return cfgs;
  };
  std::vector<BenchWorkload> out;
  BenchWorkload apache{
      "apache",
      "apache4x16p under all eight protocols on one chip, then on 4 chips "
      "with churn: directory handlers, broadcast snooping, NoC, inter-chip "
      "and VM lifecycle",
      grid("apache4x16p", {K::Directory, K::DiCo, K::DiCoProviders,
                           K::DiCoArin, K::Mesi, K::Moesi, K::Dragon,
                           K::Adapt})};
  for (ExperimentConfig cfg :
       grid("apache4x16p", {K::Directory, K::DiCoArin})) {
    cfg.scaleout.chips = 4;
    cfg.scaleout.churn = kChurn;
    apache.experiments.push_back(cfg);
  }
  out.push_back(std::move(apache));
  out.push_back({"sci-hits",
                 "mixed-sci under the paper protocols: ~96% L1 hits, so the "
                 "generator and hit-path table interpreter dominate",
                 grid("mixed-sci", paper)});
  return out;
}

Timed runTimed(const ExperimentConfig& cfg, bool traced) {
  return cfg.scaleout.active() ? runServer(cfg, traced)
                               : runChip(cfg, traced);
}

double setupOnlyS(const ExperimentConfig& cfg) {
  const double t0 = nowS();
  if (cfg.scaleout.active()) {
    ServerSystem server(cfg);
    return nowS() - t0;
  }
  const auto perVm = profiles::byWorkloadName(cfg.workloadName);
  const VmLayout layout =
      VmLayout::matched(cfg.chip, static_cast<std::uint32_t>(perVm.size()));
  CmpSystem system(cfg.chip, cfg.protocol, layout, perVm, cfg.seed,
                   cfg.dedupEnabled);
  return nowS() - t0;
}

std::string digestOf(const ExperimentResult& r) {
  Digest h;
  h.u(r.cycles);
  h.u(r.ops);
  h.d(r.throughput);
  h.d(r.dedupSavedFraction);

  const ProtocolStats& s = r.stats;
  for (std::uint64_t v :
       {s.reads, s.writes, s.l1ReadHits, s.l1WriteHits, s.readMisses,
        s.writeMisses, s.upgrades, s.l2DataHits, s.memoryFetches,
        s.invalidationsSent, s.broadcastInvalidations, s.ownershipTransfers,
        s.providershipTransfers, s.hintMessages, s.providerResolvedMisses,
        s.writebacks, s.l2Evictions, s.dirEvictionInvalidations})
    h.u(v);
  for (std::uint64_t v : s.missByClass) h.u(v);
  for (const Accumulator& a : s.latencyByClass) h.acc(a);
  for (const Accumulator& a : s.linksByClass) h.acc(a);
  h.acc(s.missLatency);

  const CacheEnergyEvents& e = r.events;
  for (std::uint64_t v :
       {e.l1TagProbe, e.l1DataRead, e.l1DataWrite, e.l1DirRead, e.l1DirUpdate,
        e.l2TagProbe, e.l2DataRead, e.l2DataWrite, e.l2DirRead, e.l2DirUpdate,
        e.dirCacheProbe, e.dirCacheUpdate, e.l1cProbe, e.l1cUpdate,
        e.l2cProbe, e.l2cUpdate})
    h.u(v);

  const NocStats& n = r.noc;
  for (std::uint64_t v : {n.messages, n.controlMessages, n.dataMessages,
                          n.broadcasts, n.routings, n.linkFlits,
                          n.linksTraversed})
    h.u(v);
  h.acc(n.unicastLatency);
  h.acc(n.contentionWait);

  for (double v : {r.cacheMw, r.linkMw, r.routingMw, r.interchipMw,
                   r.totalDynamicMw()})
    h.d(v);

  h.u(r.chips);
  h.u(r.churnApplied);
  const InterChipStats& ic = r.interchip;
  for (std::uint64_t v : {ic.messages, ic.dataMessages, ic.flits, ic.flitHops,
                          ic.remoteFetches, ic.migrations, ic.migrationPages})
    h.u(v);
  h.acc(ic.latency);
  h.acc(ic.wait);
  if (const ScaleoutDetail* sd = r.scaleout.get()) {
    for (std::uint64_t v :
         {sd->boots, sd->shutdowns, sd->migrationsStarted,
          sd->migrationsCompleted, sd->storms, sd->skippedEvents,
          std::uint64_t{sd->totalVms}, sd->cowEvents, sd->reclaimedPages})
      h.u(v);
    for (std::uint64_t v : sd->interchipRowFlits) h.u(v);
    for (std::uint64_t v : sd->interchipRowMessages) h.u(v);
    for (const ScaleoutChipSummary& c : sd->chips) {
      h.u(c.cycles);
      h.u(c.ops);
    }
  }
  return h.hex();
}

}  // namespace perfbench
