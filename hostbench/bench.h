// Shared plumbing of the host-performance benchmark: options, clocks,
// the span tracer, round scheduling of timed units, robust statistics and
// the run report every workload fills.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "eval/harness.h"

namespace hostbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;    // length of the timed part of the run
  std::string trace_path;   // non-empty = traced run
  bool smoke = false;       // tiny budgets, for the benchmark's own test
  std::string repo = ".";   // checkout root (manifests live under bench/)
  std::string tools_dir;    // where spearrun / spearfarm were built
  std::string work_dir;     // scratch files of this run (removed at exit)
};

// The profiling input differs from the reference input, as in the paper.
// Seed 42 maps to the repo's default pair (42, 20040426).
inline std::uint64_t ProfileSeed(std::uint64_t seed) {
  return seed + 20040384;
}

double NowS();         // steady clock, seconds
double ThreadCpuS();   // this process, user + sys (all threads)
double ChildCpuS();    // reaped children (and their reaped descendants)
double PeakRssMb();    // max over this process and reaped descendants
std::uint64_t TreeBytes(const std::string& dir);  // regular files below
std::uint64_t SplitMix(std::uint64_t* state);     // seeded shuffles

// `count` distinct indices below `n`, chosen by `seed`.
std::vector<std::size_t> SeededSubset(std::uint64_t seed, std::size_t n,
                                      std::size_t count);

// W of the pool and farm workloads: kPoolWorkers, at most the host's cores.
constexpr int kPoolWorkers = 3;
int PoolWorkers();

// --- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  // index of the enclosing span, -1 = top level
  int row = -1;     // unit / row id the span belongs to
};

// Spans are only recorded while enabled; a disabled tracer costs one
// branch per call site. Thread-safe: the farm workload drives two
// connections from two threads, each with its own parent stack.
class Tracer {
 public:
  void Enable() { on_ = true; }
  void Disable() { on_ = false; }
  bool on() const { return on_; }
  int Begin(const char* name, int row);
  void End(int id);

  // Per-name totals: self time (span minus the part its children cover)
  // and call count.
  struct Layer {
    double self_s = 0;
    double total_s = 0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, Layer> Layers() const;
  double Total(const std::string& name) const;
  bool Write(const std::string& path) const;  // spans as a JSON array

 private:
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer& GlobalTracer();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int row = -1)
      : id_(GlobalTracer().on() ? GlobalTracer().Begin(name, row) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) GlobalTracer().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// --- statistics --------------------------------------------------------------

double Median(std::vector<double> v);
double Min(const std::vector<double>& v);
// The highest percentile with at least ten samples beyond it; with ten or
// fewer samples there is no such percentile and the maximum is returned.
double Tail(std::vector<double> v, double* percentile);

// --- timed units in rounds ----------------------------------------------------

// One timed unit's samples, one per round.
struct UnitSamples {
  std::vector<double> wall;
  std::vector<double> cpu;
};

// Runs `round(r, order)` for r = 0, 1, ... until at least `min_rounds`
// rounds ran and the rounds took `seconds` in total. `order` is a
// permutation of [0, groups) that changes from round to round, so host
// regimes do not line up with units; it depends on the round only, not on
// the seed, so every seed runs its units in the same order.
int RunRounds(double seconds, int min_rounds, int groups,
              const std::function<void(int, const std::vector<int>&)>& round);

// The per-unit statistic that repeats best on this host: the median of a
// unit's rounds (see README, "Rounds").
double UnitStat(const std::vector<double>& samples);

// Times units into per-unit samples, and sums the time of traced and of
// untraced units (their difference is the tracing overhead).
class UnitClock {
 public:
  explicit UnitClock(std::size_t units) : units_(units) {}
  void Time(std::size_t unit, const std::function<void()>& body);
  const std::vector<UnitSamples>& units() const { return units_; }
  double TracingOverheadS() const { return traced_s_ - untraced_s_; }

 private:
  std::vector<UnitSamples> units_;
  double traced_s_ = 0;
  double untraced_s_ = 0;
};

// Sum over units of UnitStat (or of the best round, `best`) of the wall or
// CPU samples.
double SumOverUnits(const std::vector<UnitSamples>& units, bool cpu,
                    bool best = false);

// A note comparing the two per-unit statistics on this run's samples.
std::string AltStatNote(const std::vector<UnitSamples>& units);

// --- the run report ------------------------------------------------------------

struct Report {
  // Distinct operations of one pass (rows, sweeps, the farm's mix row);
  // a unit repeated over rounds counts once, and counts as failed if any
  // of its rounds failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  // name -> value. Names starting with '_' are inputs to
  // FillLayerMetrics (instruction and interval counts), never printed.
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;         // human lines printed before JSON

  // A failed output check: the run is not correct.
  void CheckFailed(const std::string& what);
  void Check(bool ok, const std::string& what) {
    if (!ok) CheckFailed(what);
  }
  void Set(const std::string& name, double v) { metrics[name] = v; }
  double Get(const std::string& name) const {
    auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second;
  }
};

// Compiles every kernel `reps` times (one in traced and smoke runs),
// keeps the last set and reports the median time as setup_s.
std::vector<spear::PreparedWorkload> PrepareKernels(
    const std::vector<std::string>& names, const spear::EvalOptions& eopts,
    int reps, Report* r);

// Sets hit_p50_ms and hit_tail_ms from the warm samples (ms), with a note
// naming the tail percentile, the sample count and what the samples are.
void SetHitMetrics(const std::vector<double>& hit_ms, const std::string& what,
                   Report* r);

// Each workload: setup, timed pass(es), checks; fills end-to-end metrics
// (untraced) or per-layer ones (traced).
void RunFigDetail(const Options& o, Report* r);
void RunSampledScaled(const Options& o, Report* r);
void RunMixParallel(const Options& o, Report* r);
void RunFarmMixed(const Options& o, Report* r);

// Fills the span-derived per-layer metrics shared by every workload.
void FillLayerMetrics(Report* r);

}  // namespace hostbench
