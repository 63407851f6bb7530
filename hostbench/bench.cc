// hostbench — the repo's host-performance benchmark. One workload per
// process:
//
//   hostbench --workload fig-detail --seed 7 --seconds 12
//       [--trace spans.json] [--smoke] [--repo .] [--tools DIR] [--work DIR]
//
// Prints every metric by name with its unit, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics for an untraced run, per-layer metrics (from the spans) for a
// traced one. Exit 1 without a result when the run cannot be set up.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "bench.h"
#include "telemetry/json.h"

namespace hostbench {

namespace fs = std::filesystem;
using spear::telemetry::JsonValue;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double TvS(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ChildCpuS() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return TvS(ru.ru_utime) + TvS(ru.ru_stime);
}

double PeakRssMb() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

std::uint64_t TreeBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

std::uint64_t SplitMix(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<std::size_t> SeededSubset(std::uint64_t seed, std::size_t n,
                                      std::size_t count) {
  std::vector<std::size_t> out;
  for (std::uint64_t rng = seed; out.size() < std::min(count, n);) {
    const std::size_t pick = SplitMix(&rng) % n;
    if (std::find(out.begin(), out.end(), pick) == out.end()) {
      out.push_back(pick);
    }
  }
  return out;
}

int PoolWorkers() {
  const int cores = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  return std::max(1, std::min(kPoolWorkers, cores));
}

// --- spans -------------------------------------------------------------------

namespace {
thread_local std::vector<int> t_stack;
}

int Tracer::Begin(const char* name, int row) {
  Span s;
  s.name = name;
  s.row = row;
  s.parent = t_stack.empty() ? -1 : t_stack.back();
  std::lock_guard<std::mutex> lock(mu_);
  s.start = NowS();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  t_stack.push_back(id);
  return id;
}

void Tracer::End(int id) {
  const double now = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
}

std::map<std::string, Tracer::Layer> Tracer::Layers() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Layer& l = out[spans_[i].name];
    const double dur = spans_[i].end - spans_[i].start;
    l.total_s += dur;
    l.self_s += dur - child[i];
    ++l.calls;
  }
  return out;
}

double Tracer::Total(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.end - s.start;
  }
  return t;
}

bool Tracer::Write(const std::string& path) const {
  JsonValue arr = JsonValue::Array();
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) {
    JsonValue o = JsonValue::Object();
    o.Set("name", JsonValue(s.name));
    o.Set("start_us", JsonValue(static_cast<std::int64_t>(std::llround((s.start - t0) * 1e6))));
    o.Set("end_us", JsonValue(static_cast<std::int64_t>(std::llround((s.end - t0) * 1e6))));
    o.Set("parent", JsonValue(s.parent));
    o.Set("row", JsonValue(s.row));
    arr.Append(std::move(o));
  }
  std::error_code ec;
  const fs::path p(path);
  if (p.has_parent_path()) fs::create_directories(p.parent_path(), ec);
  std::ofstream out(path, std::ios::binary);
  out << arr.Dump(1) << "\n";
  return static_cast<bool>(out);
}

Tracer& GlobalTracer() {
  static Tracer t;
  return t;
}

// --- statistics ------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double Tail(std::vector<double> v, double* percentile) {
  if (v.empty()) {
    *percentile = 0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t i = n > 10 ? n - 11 : n - 1;
  *percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return v[i];
}

double UnitStat(const std::vector<double>& samples) { return Median(samples); }

void UnitClock::Time(std::size_t unit, const std::function<void()>& body) {
  const double w0 = NowS();
  const double c0 = ThreadCpuS();
  const bool traced = GlobalTracer().on();
  {
    ScopedSpan s("unit", static_cast<int>(unit));
    body();
  }
  const double wall = NowS() - w0;
  units_[unit].wall.push_back(wall);
  units_[unit].cpu.push_back(ThreadCpuS() - c0);
  (traced ? traced_s_ : untraced_s_) += wall;
}

std::vector<spear::PreparedWorkload> PrepareKernels(
    const std::vector<std::string>& names, const spear::EvalOptions& eopts,
    int reps, Report* r) {
  std::vector<spear::PreparedWorkload> pw(names.size());
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = NowS();
    for (std::size_t k = 0; k < names.size(); ++k) {
      ScopedSpan s("compiler.PrepareWorkload", static_cast<int>(k));
      pw[k] = spear::PrepareWorkload(names[k], eopts);
    }
    times.push_back(NowS() - t0);
  }
  r->Set("setup_s", Median(times));
  return pw;
}

void SetHitMetrics(const std::vector<double>& hit_ms, const std::string& what,
                   Report* r) {
  double pct = 0;
  r->Set("hit_p50_ms", Median(hit_ms));
  r->Set("hit_tail_ms", Tail(hit_ms, &pct));
  char line[200];
  std::snprintf(line, sizeof(line), "hit tail: p%.3f of %zu %s", pct,
                hit_ms.size(), what.c_str());
  r->notes.push_back(line);
}

double SumOverUnits(const std::vector<UnitSamples>& units, bool cpu,
                    bool best) {
  double sum = 0;
  for (const UnitSamples& u : units) {
    const std::vector<double>& v = cpu ? u.cpu : u.wall;
    sum += best ? Min(v) : UnitStat(v);
  }
  return sum;
}

std::string AltStatNote(const std::vector<UnitSamples>& units) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "per-unit median: wall %.4f s cpu %.4f s; per-unit best: "
                "wall %.4f s cpu %.4f s",
                SumOverUnits(units, false), SumOverUnits(units, true),
                SumOverUnits(units, false, true),
                SumOverUnits(units, true, true));
  return line;
}

int RunRounds(double seconds, int min_rounds, int groups,
              const std::function<void(int, const std::vector<int>&)>& round) {
  std::uint64_t rng = 17;
  const double t0 = NowS();
  int r = 0;
  // Another round starts only if, at the mean round length so far, it
  // ends within `seconds`: run time stays near max(min_rounds passes,
  // seconds) instead of overshooting by a whole pass.
  while (r < min_rounds ||
         (NowS() - t0) * (r + 1) / r <= seconds) {
    std::vector<int> order(static_cast<std::size_t>(groups));
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[SplitMix(&rng) % i]);
    }
    round(r, order);
    ++r;
  }
  return r;
}

void Report::CheckFailed(const std::string& what) {
  correct = false;
  if (problems.size() < 20) problems.push_back(what);
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"wall_s", "s"},       {"cpu_s", "s"},       {"setup_s", "s"},
    {"peak_rss_mb", "MB"}, {"disk_mb", "MB"},    {"hit_p50_ms", "ms"},
    {"hit_tail_ms", "ms"},
};

const MetricDef kPerLayer[] = {
    {"compiler.prepare_s", "s"},
    {"sim.func_mips", "MIPS"},
    {"runner.ff_s", "s"},
    {"runner.tree_save_s", "s"},
    {"runner.tree_load_s", "s"},
    {"runner.tree_mb", "MB"},
    {"runner.job_p50_ms", "ms"},
    {"runner.pool_overhead_s", "s"},
    {"runner.retries", "count"},
    {"runner.doc_s", "s"},
    {"cpu.detail_s", "s"},
    {"cpu.ns_per_cycle.base", "ns"},
    {"cpu.ns_per_cycle.spear", "ns"},
    {"cpu.ns_per_instr", "ns"},
    {"cpu.cycles", "cycles"},
    {"cpu.commit_per_dispatch", "ratio"},
    {"cpu.smt_ns_per_cycle", "ns"},
    {"cpu.cmp_ns_per_cycle", "ns"},
    {"mem.l1d_misses", "count"},
    {"mem.l2_misses", "count"},
    {"spear.sessions_per_trigger", "ratio"},
    {"spear.speedup_128", "ratio"},
    {"spear.speedup_256", "ratio"},
    {"sampling.run_s", "s"},
    {"sampling.replay_s", "s"},
    {"sampling.ms_per_interval", "ms"},
    {"eval.mix_s", "s"},
    {"eval.weighted_speedup", "ratio"},
    {"farm.queue_wait_p50_ms", "ms"},
    {"farm.miss_p50_ms", "ms"},
    {"farm.hits", "count"},
    {"farm.cache_mb", "MB"},
    {"telemetry.parse_ms", "ms"},
    {"telemetry.dump_ms", "ms"},
    {"trace.overhead_s", "s"},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fig-detail|sampled-scaled|mix-parallel|"
               "farm-mixed --seed N --seconds S [--trace FILE] [--smoke]\n"
               "       [--repo DIR] [--tools DIR] [--work DIR]\n",
               argv0);
  return 2;
}

}  // namespace

void FillLayerMetrics(Report* r) {
  const Tracer& t = GlobalTracer();
  r->Set("compiler.prepare_s", t.Total("compiler.PrepareWorkload"));
  r->Set("runner.ff_s", t.Total("runner.FastForward"));
  r->Set("runner.tree_save_s", t.Total("runner.SaveCheckpointTree"));
  r->Set("runner.tree_load_s", t.Total("runner.LoadCheckpointTree"));
  r->Set("runner.doc_s", t.Total("runner.BuildRunnerDocument") +
                             t.Total("runner.WriteRunnerDoc"));
  r->Set("cpu.detail_s", t.Total("cpu.RunConfig"));
  r->Set("sampling.run_s", t.Total("sampling.RunSampled"));
  r->Set("sampling.replay_s", t.Total("sampling.RunSampledFromTree"));
  r->Set("eval.mix_s", t.Total("eval.RunMix"));
  r->Set("telemetry.parse_ms", 1e3 * t.Total("telemetry.JsonParse"));
  r->Set("telemetry.dump_ms", 1e3 * t.Total("telemetry.Dump"));
  if (r->Get("_intervals") > 0) {
    r->Set("sampling.ms_per_interval",
           1e3 * (r->Get("sampling.run_s") + r->Get("sampling.replay_s")) /
               r->Get("_intervals"));
  }
  const double emu_s = t.Total("sim.Emulator::Run");
  if (emu_s > 0) {
    r->Set("sim.func_mips", r->Get("_emu_instrs") / emu_s / 1e6);
  }
}

}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  namespace fs = std::filesystem;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = std::stoull(next());
    } else if (a == "--seconds") {
      o.seconds = std::stod(next());
    } else if (a == "--trace") {
      o.trace_path = next();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--repo") {
      o.repo = next();
    } else if (a == "--tools") {
      o.tools_dir = next();
    } else if (a == "--work") {
      o.work_dir = next();
    } else {
      return Usage(argv[0]);
    }
  }
  void (*run)(const Options&, Report*) =
      o.workload == "fig-detail"       ? RunFigDetail
      : o.workload == "sampled-scaled" ? RunSampledScaled
      : o.workload == "mix-parallel"   ? RunMixParallel
      : o.workload == "farm-mixed"     ? RunFarmMixed
                                       : nullptr;
  if (run == nullptr) return Usage(argv[0]);
  if (!fs::exists(o.repo + "/bench/manifests/fig6.json")) {
    std::fprintf(stderr, "hostbench: %s is not a checkout of the repo\n",
                 o.repo.c_str());
    return 1;
  }
  if (o.work_dir.empty()) o.work_dir = ".bench_build/work";
  o.work_dir += "/" + o.workload + "." + std::to_string(::getpid());
  fs::create_directories(o.work_dir + "/tmp");
  // The pool's job files and captured stderr go to the temp directory:
  // keep them (and every child's) inside the checkout.
  ::setenv("TMPDIR", fs::absolute(o.work_dir + "/tmp").c_str(), 1);
  const bool traced = !o.trace_path.empty();
  if (traced) GlobalTracer().Enable();

  Report r;
  run(o, &r);
  std::error_code ec;
  fs::remove_all(o.work_dir, ec);

  if (traced) {
    FillLayerMetrics(&r);
    std::printf("per-layer self time (traced run):\n");
    for (const auto& [name, l] : GlobalTracer().Layers()) {
      std::printf("  %-32s self %9.4f s  total %9.4f s  calls %llu\n",
                  name.c_str(), l.self_s, l.total_s,
                  static_cast<unsigned long long>(l.calls));
    }
    if (!GlobalTracer().Write(o.trace_path)) {
      std::fprintf(stderr, "hostbench: cannot write %s\n",
                   o.trace_path.c_str());
    }
  }
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  for (const std::string& p : r.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }

  JsonValue metrics = JsonValue::Object();
  auto emit = [&](const MetricDef& d) {
    const double v = r.Get(d.name);
    std::printf("%-28s %14.6f %s\n", d.name, v, d.unit);
    JsonValue m = JsonValue::Object();
    m.Set("value", JsonValue(v));
    m.Set("unit", JsonValue(d.unit));
    metrics.Set(d.name, std::move(m));
  };
  if (traced) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) {
      if (r.metrics.count(d.name) == 0 || !(r.Get(d.name) > 0.0)) {
        r.CheckFailed(std::string("end-to-end metric ") + d.name +
                      " was not measured");
      }
      emit(d);
    }
  }
  JsonValue out = JsonValue::Object();
  out.Set("correct", JsonValue(r.correct));
  out.Set("attempted", JsonValue(r.attempted));
  out.Set("failed", JsonValue(r.failed));
  out.Set("metrics", std::move(metrics));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}
