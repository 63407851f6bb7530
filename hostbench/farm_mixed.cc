// farm-mixed: one client process drives a `spearfarm` daemon that starts
// with W workers and empty caches. The client holds two connections: the
// warm one keeps every row of an already-cached sweep in flight (16
// closed-loop clients, each row resubmitted on its result), while the cold
// one submits the Figure 6 matrix at a fresh seed per pass. The daemon
// prepares each new workload on its poll loop to compute a cache key, so
// warm hits queue behind cold submissions. One cold sweep is one timed
// unit.
//
// After the timed passes the client submits one 2-program mix row. The
// daemon prepares `spec.workload`, which is empty for a mix job, and
// aborts on SPEAR_CHECK "unknown workload": the row counts as attempted 1,
// failed 1 until the farm supports mixes, and the dead daemon is reaped.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "farm/client.h"
#include "runner/manifest.h"
#include "runner/runner.h"

namespace hostbench {

namespace fs = std::filesystem;
using namespace spear;
using telemetry::JsonValue;

namespace {

// The daemon process: started in the constructor, killed (if still
// running) and reaped in the destructor.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::string& log) {
    pid_ = ::fork();
    if (pid_ == 0) {
      rlimit no_core{0, 0};
      ::setrlimit(RLIMIT_CORE, &no_core);  // the mix row aborts it
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(exe.c_str()));
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(exe.c_str(), argv.data());
      ::_exit(127);
    }
  }
  ~Daemon() { Reap(true); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Waits up to `wait_s` for the daemon to exit (SIGKILL after that, or
  // at once when `kill_now`). Returns the wait status, -1 if none.
  int Reap(bool kill_now, double wait_s = 0) {
    if (pid_ <= 0) return status_;
    const double deadline = NowS() + wait_s;
    while (!kill_now && NowS() < deadline) {
      if (::waitpid(pid_, &status_, WNOHANG) == pid_) {
        pid_ = -1;
        return status_;
      }
      ::usleep(20 * 1000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status_, 0);
    pid_ = -1;
    return status_;
  }

  // utime + stime of the daemon and the workers it reaped, from /proc.
  double CpuS() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) return 0;
    std::istringstream f(text.substr(close + 2));
    std::string skip;
    for (int i = 3; i < 14; ++i) f >> skip;  // fields 3..13
    double t[4] = {0, 0, 0, 0};
    f >> t[0] >> t[1] >> t[2] >> t[3];
    return (t[0] + t[1] + t[2] + t[3]) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
  }

 private:
  pid_t pid_ = -1;
  int status_ = -1;
};

JsonValue Submit(const JsonValue& manifest, std::size_t job) {
  JsonValue f = JsonValue::Object();
  f.Set("op", JsonValue("submit"));
  f.Set("manifest", manifest);
  f.Set("job", JsonValue(static_cast<std::int64_t>(job)));
  return f;
}

// One sweep through a connection: every job submitted (a window of 32 in
// flight), events read until every job has ended in a `result`, `rejected`
// or `error` event; the last two count as failed rows.
struct SweepResult {
  std::vector<JsonValue> rows;
  std::vector<bool> failed;
  std::vector<double> queue_wait_ms;  // submit -> started
  std::vector<double> result_ms;      // submit -> result
  bool transport_ok = true;
  std::string error;
};

SweepResult RunSweep(farm::FarmClient& client, const runner::Manifest& m) {
  const JsonValue man = runner::ManifestToJson(m);
  const std::size_t n = runner::ExpandJobs(m).size();
  SweepResult out;
  out.rows.resize(n);
  out.failed.assign(n, true);
  out.queue_wait_ms.assign(n, 0);
  out.result_ms.assign(n, 0);
  std::vector<double> sent(n, 0);
  std::size_t next = 0, done = 0, outstanding = 0;
  while (done < n) {
    while (outstanding < 32 && next < n) {
      sent[next] = NowS();
      ScopedSpan s("farm.FarmClient::Send", static_cast<int>(next));
      if (!client.Send(Submit(man, next), &out.error)) {
        out.transport_ok = false;
        return out;
      }
      ++next;
      ++outstanding;
    }
    JsonValue ev;
    {
      ScopedSpan s("farm.FarmClient::Recv");
      if (!client.Recv(&ev, &out.error)) {
        out.transport_ok = false;
        return out;
      }
    }
    const double now = NowS();
    const JsonValue* kind = ev.Find("event");
    const JsonValue* job = ev.Find("job");
    if (kind == nullptr || job == nullptr || job->AsInt() < 0 ||
        static_cast<std::size_t>(job->AsInt()) >= n) {
      continue;
    }
    const std::size_t i = static_cast<std::size_t>(job->AsInt());
    if (kind->AsString() == "started") {
      out.queue_wait_ms[i] = 1e3 * (now - sent[i]);
    } else if (kind->AsString() == "result" ||
               kind->AsString() == "rejected" ||
               kind->AsString() == "error") {
      const JsonValue* row = ev.Find("row");
      const JsonValue* f = ev.Find("failed");
      out.rows[i] = row != nullptr ? *row : ev;
      out.failed[i] = kind->AsString() != "result" ||
                      (f != nullptr && f->AsBool());
      out.result_ms[i] = 1e3 * (now - sent[i]);
      --outstanding;
      ++done;
    }
  }
  return out;
}

runner::Manifest Fig6(const runner::Manifest& base, std::uint64_t seed) {
  runner::Manifest m = base;
  m.defaults.ref_seed = seed;
  m.defaults.profile_seed = ProfileSeed(seed);
  return m;
}

}  // namespace

void RunFarmMixed(const Options& o, Report* r) {
  runner::Manifest fig6;
  runner::Manifest mixes;
  std::string err;
  if (!runner::LoadManifestFile(o.repo + "/bench/manifests/fig6.json", &fig6,
                                &err) ||
      !runner::LoadManifestFile(o.repo + "/bench/manifests/multiprog.json",
                                &mixes, &err)) {
    r->CheckFailed("manifest: " + err);
    return;
  }
  if (o.smoke) {
    fig6.defaults.sim_instrs = 5000;
    fig6.defaults.ff_instrs = 2000;
    fig6.workloads.resize(3);
  }
  // The warm sweep: 8 kernels x {base, spear256} at 40k instructions.
  // Each of its 16 rows is kept in flight on the warm connection (16
  // closed-loop clients), so one stall of the daemon's poll loop delays
  // more than the ten warm samples the tail percentile needs beyond it.
  runner::Manifest warm_m = Fig6(fig6, o.seed);
  warm_m.name = "farm_warm";
  warm_m.workloads = {"mcf", "gzip", "equake", "pointer",
                      "art", "vpr", "bzip2", "fft"};
  warm_m.configs = {fig6.configs.front(), fig6.configs.back()};
  warm_m.defaults.sim_instrs = 40'000;
  warm_m.derived.clear();
  if (o.smoke) warm_m.workloads.resize(2);
  // Cold sweeps: the Figure 6 matrix at a fresh seed per pass, so every
  // row misses the cache and every workload is new to the daemon.
  auto cold_seed = [&](int pass) {
    return o.seed * 1'000'003ull + 1'000 + static_cast<std::uint64_t>(pass);
  };
  const std::size_t ncold = runner::ExpandJobs(fig6).size();
  const std::size_t nwarm = runner::ExpandJobs(warm_m).size();
  const int workers = PoolWorkers();
  const bool traced = GlobalTracer().on();

  // The seeded subset of cold rows (of pass 0) re-run in process.
  const std::vector<std::size_t> subset = SeededSubset(o.seed, ncold, 2);
  const runner::Manifest cold0 = Fig6(fig6, cold_seed(0));
  const std::vector<runner::JobSpec> cold_jobs = runner::ExpandJobs(cold0);

  // Setup: the check programs, the daemon, and the primed warm sweep.
  const std::string state = o.work_dir + "/farm";
  const std::string sock =
      fs::relative(o.work_dir + "/farm.sock").string();
  const double t_setup = NowS();
  runner::WorkloadCache cache;
  for (std::size_t s : subset) {
    ScopedSpan sp("compiler.PrepareWorkload");
    cache.Get(cold_jobs[s].workload,
              runner::MakeEvalOptions(cold0.defaults,
                                      cold0.configs[cold_jobs[s].config]));
  }
  Daemon daemon(o.tools_dir + "/spearfarm",
                {"--socket", sock, "--state-dir", state, "-j",
                 std::to_string(workers), "--ckpt-dir", state + "/ckpt"},
                o.work_dir + "/farm.log");
  farm::FarmClient warm;
  farm::FarmClient cold;
  bool up = false;
  for (int i = 0; i < 200 && !up; ++i) {
    up = warm.Connect(sock, &err) && warm.Ping(&err);
    if (!up) {
      warm.Close();
      ::usleep(50 * 1000);
    }
  }
  if (!up || !cold.Connect(sock, &err)) {
    r->CheckFailed("spearfarm did not come up: " + err);
    return;
  }
  SweepResult prime;
  {
    ScopedSpan sp("farm.prime");
    prime = RunSweep(warm, warm_m);
  }
  r->Set("setup_s", NowS() - t_setup);
  if (!prime.transport_ok) {
    r->CheckFailed("priming the warm sweep: " + prime.error);
    return;
  }

  // Timed passes.
  const JsonValue warm_json = runner::ManifestToJson(warm_m);
  UnitSamples sweep;
  std::vector<double> hit_ms, queue_wait, miss_ms;
  std::vector<bool> cold_failed(ncold, false), warm_failed(nwarm, false);
  std::vector<JsonValue> cold0_rows;
  runner::Manifest last_cold;
  std::vector<JsonValue> last_rows;
  double untraced_wall = 0, traced_wall = 0;
  std::uint64_t warm_served = 0;
  Tracer& tracer = GlobalTracer();
  if (traced) tracer.Disable();
  const int rounds = RunRounds(
      traced || o.smoke ? 0.0 : o.seconds, 2, 1,
      [&](int pass, const std::vector<int>&) {
        if (traced && pass == 1) tracer.Enable();
        const runner::Manifest cm = Fig6(fig6, cold_seed(pass));
        std::atomic<bool> stop{false};
        std::vector<double> lat;
        std::string warm_err;
        // The warm connection: every warm row in flight once; a row is
        // resubmitted as soon as its result arrives, until the cold sweep
        // ends.
        std::thread warm_thread([&] {
          std::vector<double> sent(nwarm, 0);
          auto send = [&](std::size_t job) {
            sent[job] = NowS();
            return warm.Send(Submit(warm_json, job), &warm_err);
          };
          std::size_t outstanding = 0;
          for (std::size_t j = 0; j < nwarm; ++j, ++outstanding) {
            if (!send(j)) return;
          }
          while (outstanding > 0) {
            JsonValue ev;
            if (!warm.Recv(&ev, &warm_err)) return;
            const JsonValue* kind = ev.Find("event");
            const JsonValue* job_field = ev.Find("job");
            if (kind == nullptr || job_field == nullptr ||
                job_field->AsInt() < 0 ||
                static_cast<std::size_t>(job_field->AsInt()) >= nwarm) {
              continue;
            }
            const std::size_t job = static_cast<std::size_t>(job_field->AsInt());
            if (kind->AsString() == "rejected" || kind->AsString() == "error") {
              warm_failed[job] = true;  // ended without a row: not resent
              --outstanding;
              continue;
            }
            if (kind->AsString() != "result") continue;
            lat.push_back(1e3 * (NowS() - sent[job]));
            const JsonValue* cached = ev.Find("cached");
            const JsonValue* row = ev.Find("row");
            if (cached == nullptr || !cached->AsBool() || row == nullptr ||
                row->Dump() != prime.rows[job].Dump()) {
              warm_failed[job] = true;
            }
            --outstanding;
            if (!stop.load()) {
              if (!send(job)) return;
              ++outstanding;
            }
          }
        });
        const double w0 = NowS();
        const double c0 = ThreadCpuS() + daemon.CpuS();
        SweepResult res;
        {
          ScopedSpan unit("unit", pass);
          res = RunSweep(cold, cm);
        }
        const double wall = NowS() - w0;
        stop = true;
        warm_thread.join();
        sweep.wall.push_back(wall);
        sweep.cpu.push_back(ThreadCpuS() + daemon.CpuS() - c0);
        (tracer.on() ? traced_wall : untraced_wall) += wall;
        if (!res.transport_ok || !warm_err.empty()) {
          r->CheckFailed("farm connection lost: " + res.error + warm_err);
          std::fill(cold_failed.begin(), cold_failed.end(), true);
          return;
        }
        hit_ms.insert(hit_ms.end(), lat.begin(), lat.end());
        warm_served += lat.size();
        for (std::size_t i = 0; i < ncold; ++i) {
          queue_wait.push_back(res.queue_wait_ms[i]);
          miss_ms.push_back(res.result_ms[i]);
          if (res.failed[i]) {
            cold_failed[i] = true;
            r->CheckFailed("cold row " + std::to_string(i) + " failed: " +
                           res.rows[i].Dump());
          }
        }
        if (pass == 0) cold0_rows = res.rows;
        last_cold = cm;
        last_rows = res.rows;
      });
  warm.Close();

  // Cache size and hit count, then the named fault: one 2-program mix
  // row on a fresh connection (inputs fixed, independent of --seed).
  JsonValue status;
  farm::FarmClient ctl;
  if (ctl.Connect(sock, &err) && ctl.Status(&status, &err)) {
    if (const JsonValue* h = status.FindPath("stats.runner.farm.cache.hits")) {
      r->Set("farm.hits", h->AsDouble());
    }
  }
  ctl.Close();
  r->Set("farm.cache_mb", static_cast<double>(TreeBytes(state + "/cache")) / 1e6);
  const double disk = static_cast<double>(TreeBytes(state));

  // The mix row goes through RunSweep on a one-job manifest, so a daemon
  // that rejects it ends the row as surely as one that dies on it.
  bool mix_ok = false;
  {
    runner::Manifest mix = mixes;
    mix.defaults.sim_instrs = 5000;
    mix.extra_jobs.resize(1);
    mix.derived.clear();
    farm::FarmClient c;
    if (c.Connect(sock, &err)) {
      const SweepResult res = RunSweep(c, mix);
      mix_ok = res.transport_ok && !res.failed[0];
    }
  }
  cold.Close();
  {  // a daemon that survived the mix row is stopped cleanly
    farm::FarmClient c;
    std::int64_t persisted = 0;
    if (c.Connect(sock, &err)) c.Drain(&persisted, &err);
  }
  const int st = daemon.Reap(false, 10.0);
  r->Set("peak_rss_mb", PeakRssMb());
  r->notes.push_back(
      std::string("farm mix row: ") + (mix_ok ? "ok" : "FAILED") +
      "; daemon " +
      (st >= 0 && WIFSIGNALED(st)
           ? "killed by signal " + std::to_string(WTERMSIG(st))
           : "exited " + std::to_string(st >= 0 ? WEXITSTATUS(st) : -1)));

  // Output checks (untimed): the seeded subset of pass-0 cold rows in
  // process under lockstep cosim, byte for byte; cold rows sane.
  SelfTestData sample;
  for (std::size_t s : subset) {
    if (cold0_rows.size() != ncold) break;
    runner::RunnerOptions copts;
    copts.ckpt_dir = o.work_dir + "/ckpt";
    copts.cosim = true;
    const runner::JobRun run =
        runner::ExecuteJob(cold0, cold_jobs[s], cache, copts);
    const std::string v = SameBytes("farm row and in-process cosim row",
                                    StripCosim(run.row),
                                    StripCosim(cold0_rows[s]));
    r->Check(!run.failed && v.empty(),
             runner::JobId(cold0, cold_jobs[s]) + ": " + v);
    sample.row_bytes = StripCosim(run.row);
  }
  const std::vector<runner::JobSpec> last_jobs = runner::ExpandJobs(last_cold);
  for (std::size_t i = 0; i < last_rows.size(); ++i) {
    const JsonValue* stats = last_rows[i].Find("stats");
    if (stats == nullptr) continue;
    const runner::JobSpec& job = last_jobs[i];
    RowFacts f;
    f.ipc = stats->Find("ipc")->AsDouble();
    f.width = runner::MakeCoreConfig(last_cold.configs[job.config]).issue_width;
    f.l1d_misses = static_cast<std::uint64_t>(stats->Find("l1d_misses_main")->AsInt());
    f.l2_misses = static_cast<std::uint64_t>(stats->Find("l2_misses_main")->AsInt());
    f.triggers = static_cast<std::uint64_t>(stats->Find("triggers")->AsInt());
    f.base = !last_cold.configs[job.config].spear;
    const std::string v = RowSane(f);
    r->Check(v.empty(), runner::JobId(last_cold, job) + ": " + v);
    if (i == 0) sample.facts = f;
  }
  for (std::size_t j = 0; j < nwarm; ++j) {
    r->Check(!warm_failed[j], "warm row " + std::to_string(j) +
                                  " was not a cache hit identical to its "
                                  "cold row");
  }
  r->Check(warm_served > 0, "the warm connection got no result");

  bool doc_failed = false;
  {
    JsonValue rows = JsonValue::Array();
    for (const JsonValue& row : last_rows) rows.Append(row);
    const std::string doc =
        DocRoundTrip(last_cold, std::move(rows), o.work_dir + "/doc", r,
                     &doc_failed);
    JsonValue d;
    if (telemetry::JsonParse(doc, &d, &err)) {
      if (const JsonValue* v = d.FindPath("derived.avg_speedup_128")) {
        r->Set("spear.speedup_128", v->AsDouble());
      }
      if (const JsonValue* v = d.FindPath("derived.avg_speedup_256")) {
        r->Set("spear.speedup_256", v->AsDouble());
      }
    }
  }
  r->attempted = ncold + nwarm + 2;  // + results document + mix row
  for (bool f : cold_failed) r->failed += f ? 1 : 0;
  for (bool f : warm_failed) r->failed += f ? 1 : 0;
  r->failed += (doc_failed ? 1 : 0) + (mix_ok ? 0 : 1);
  r->notes.push_back(AltStatNote({sweep}));
  r->Set("wall_s", UnitStat(sweep.wall));
  r->Set("cpu_s", UnitStat(sweep.cpu));
  r->Set("disk_mb", (disk + static_cast<double>(TreeBytes(o.work_dir + "/doc"))) / 1e6);
  r->notes.push_back("rounds " + std::to_string(rounds) + ", W=" +
                     std::to_string(workers));
  SetHitMetrics(hit_ms, "warm samples", r);
  r->Set("farm.queue_wait_p50_ms", Median(queue_wait));
  r->Set("farm.miss_p50_ms", Median(miss_ms));
  r->Set("trace.overhead_s", traced_wall - untraced_wall);
  SelfTest(sample, r);
}

}  // namespace hostbench
