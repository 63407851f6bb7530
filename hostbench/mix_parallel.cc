// mix-parallel: the 22 rows of bench/manifests/multiprog.json and
// xcore.json (2- and 4-program SMT mixes, 2-core CMP with and without
// cross-core p-threads), run cold through the fork pool — the
// `spearrun --j W` path, where every worker re-prepares its programs. One
// sweep of both manifests is one timed unit.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#include "bench.h"
#include "checks.h"
#include "eval/harness.h"
#include "runner/manifest.h"
#include "runner/runner.h"

namespace hostbench {

namespace fs = std::filesystem;
using namespace spear;
using telemetry::JsonValue;

void RunMixParallel(const Options& o, Report* r) {
  std::vector<runner::Manifest> ms(2);
  std::vector<std::string> paths;
  std::string err;
  const char* names[] = {"multiprog", "xcore"};
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (!runner::LoadManifestFile(
            o.repo + "/bench/manifests/" + names[i] + ".json", &ms[i], &err)) {
      r->CheckFailed(std::string(names[i]) + " manifest: " + err);
      return;
    }
    ms[i].defaults.ref_seed = o.seed;
    ms[i].defaults.profile_seed = ProfileSeed(o.seed);
    if (o.smoke) ms[i].defaults.sim_instrs = 5000;
    paths.push_back(o.work_dir + "/" + names[i] + ".json");
    std::ofstream(paths.back()) << runner::ManifestToJson(ms[i]).Dump(2) << "\n";
  }
  struct Row {
    std::size_t manifest;
    std::size_t job;
  };
  std::vector<Row> rows;
  std::vector<std::vector<runner::JobSpec>> jobs;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    jobs.push_back(runner::ExpandJobs(ms[i]));
    for (std::size_t j = 0; j < jobs[i].size(); ++j) rows.push_back({i, j});
  }
  const std::size_t nrows = rows.size();
  const bool traced = GlobalTracer().on();
  runner::RunnerOptions ropts;
  ropts.workers = PoolWorkers();
  ropts.use_ckpt = false;  // mixes run cold by design
  const std::string spearrun = o.tools_dir + "/spearrun";

  // The seeded subset re-run in process under lockstep cosim.
  const std::vector<std::size_t> subset = SeededSubset(o.seed, nrows, 2);

  // Setup: compile every program of the sweep in this process, for the
  // checks and the traced in-process comparison (the pool's workers
  // compile their own, inside the timed sweep).
  runner::WorkloadCache cache;
  std::vector<double> setup;
  for (int rep = 0; rep < (traced || o.smoke ? 1 : 2); ++rep) {
    cache = runner::WorkloadCache();
    const double t0 = NowS();
    for (const Row& row : rows) {
      const runner::Manifest& m = ms[row.manifest];
      const runner::JobSpec& job = jobs[row.manifest][row.job];
      const EvalOptions eopts =
          runner::MakeEvalOptions(m.defaults, m.configs[job.config]);
      for (const std::string& w : job.workloads) {
        ScopedSpan sp("compiler.PrepareWorkload");
        cache.Get(w, eopts);
      }
    }
    setup.push_back(NowS() - t0);
  }
  r->Set("setup_s", Median(setup));

  const std::string pass_dir = o.work_dir + "/pass";
  UnitSamples sweep;
  std::vector<std::vector<double>> job_ms(nrows);
  std::vector<std::string> first_docs(ms.size());
  std::vector<JsonValue> last_rows(nrows);
  std::vector<bool> row_failed(nrows, false);
  double retries = 0, untraced_wall = 0, traced_wall = 0;
  Tracer& tracer = GlobalTracer();
  if (traced) tracer.Disable();
  // At least three sweeps, so one slow sweep does not set the medians; a
  // traced run makes one untraced and one traced sweep.
  const int rounds = RunRounds(
      traced || o.smoke ? 0.0 : o.seconds, traced || o.smoke ? 2 : 3, 1,
      [&](int round, const std::vector<int>&) {
        if (traced && round == 1) tracer.Enable();
        std::error_code ec;
        fs::remove_all(pass_dir, ec);
        const double w0 = NowS();
        const double c0 = ThreadCpuS() + ChildCpuS();
        std::vector<runner::ManifestRunResult> res(ms.size());
        std::vector<std::string> docs(ms.size());
        {
          ScopedSpan unit("unit", round);
          for (std::size_t i = 0; i < ms.size(); ++i) {
            {
              ScopedSpan s("runner.RunManifestParallel");
              res[i] = runner::RunManifestParallel(ms[i], paths[i], spearrun,
                                                   ropts);
            }
            bool failed = false;
            const JsonValue* jobs_arr = res[i].document.Find("jobs");
            docs[i] = DocRoundTrip(ms[i], jobs_arr ? *jobs_arr : JsonValue(),
                                   pass_dir, r, &failed);
            if (failed) r->CheckFailed("mix results document round trip");
          }
        }
        sweep.wall.push_back(NowS() - w0);
        sweep.cpu.push_back(ThreadCpuS() + ChildCpuS() - c0);
        (tracer.on() ? traced_wall : untraced_wall) += NowS() - w0;
        for (std::size_t n = 0; n < nrows; ++n) {
          const std::size_t i = rows[n].manifest;
          const std::size_t j = rows[n].job;
          const JsonValue& doc = res[i].document;
          last_rows[n] = doc.Find("jobs")->items()[j];
          job_ms[n].push_back(
              static_cast<double>(doc.FindPath("run.jobs")->items()[j]
                                      .Find("ms")
                                      ->AsInt()));
          const JsonValue* st = last_rows[n].Find("stats");
          const JsonValue* complete = st ? st->Find("complete") : nullptr;
          if (last_rows[n].Find("failed") != nullptr || complete == nullptr ||
              !complete->AsBool()) {
            row_failed[n] = true;
            r->CheckFailed(runner::JobId(ms[i], jobs[i][j]) + " failed: " +
                           last_rows[n].Dump());
          }
        }
        for (std::size_t i = 0; i < ms.size(); ++i) {
          if (const JsonValue* v =
                  res[i].document.FindPath("run.stats.runner.jobs.retries")) {
            retries += v->AsDouble();
          }
          // The pool's document is the rebuilt one, and every sweep gives
          // the same document (modulo `run`).
          const std::string stripped =
              Without(res[i].document, {"run"}).Dump();
          r->Check(stripped == docs[i], "pool document differs from rows");
          if (round == 0) first_docs[i] = stripped;
          const std::string v =
              SameBytes("sweep documents", stripped, first_docs[i]);
          r->Check(v.empty(), names[i] + std::string(": ") + v);
        }
      });

  r->Set("peak_rss_mb", PeakRssMb());

  // Output checks (untimed).
  SelfTestData sample;
  for (std::size_t n = 0; n < nrows; ++n) {
    const runner::Manifest& m = ms[rows[n].manifest];
    const runner::JobSpec& job = jobs[rows[n].manifest][rows[n].job];
    const CoreConfig cfg = runner::MakeCoreConfig(m.configs[job.config]);
    const JsonValue* st = last_rows[n].Find("stats");
    if (st == nullptr) continue;
    RowFacts f;
    f.width = static_cast<double>(cfg.issue_width);
    f.base = false;
    for (const JsonValue& t : st->Find("threads")->items()) {
      f.ipc = t.Find("ipc")->AsDouble();
      const std::string v = RowSane(f);
      r->Check(v.empty(), runner::JobId(m, job) + " thread " +
                              t.Find("name")->AsString() + ": " + v);
    }
    if (n == 0) sample.facts = f;
  }
  for (std::size_t s : subset) {
    const runner::Manifest& m = ms[rows[s].manifest];
    const runner::JobSpec& job = jobs[rows[s].manifest][rows[s].job];
    runner::RunnerOptions copts;
    copts.use_ckpt = false;
    copts.cosim = true;
    const runner::JobRun run = runner::ExecuteJob(m, job, cache, copts);
    const std::string v =
        SameBytes("pool row and in-process cosim row",
                  StripCosim(run.row), StripCosim(last_rows[s]));
    r->Check(!run.failed && v.empty(),
             runner::JobId(m, job) + ": " + (run.failed ? run.row.Dump() : v));
    sample.row_bytes = StripCosim(run.row);
  }

  double sim_cycles = 0;
  for (const JsonValue& row : last_rows) {
    if (const JsonValue* c = row.FindPath("stats.cycles")) sim_cycles += c->AsDouble();
  }
  r->notes.push_back("simulated cycles of the sweep: " +
                     std::to_string(static_cast<long long>(sim_cycles)));
  // Per-row medians give the job p50; every row's every sweep gives the
  // hit samples, so the tail is one of the longest rows, not the median.
  std::vector<double> hits, best_hits, samples;
  for (const auto& v : job_ms) {
    hits.push_back(UnitStat(v));
    best_hits.push_back(Min(v));
    samples.insert(samples.end(), v.begin(), v.end());
  }
  r->notes.push_back(AltStatNote({sweep}) + "; job p50 " +
                     std::to_string(Median(hits)) + " ms, best " +
                     std::to_string(Median(best_hits)) + " ms");
  r->attempted = nrows;
  for (bool f : row_failed) r->failed += f ? 1 : 0;
  r->Set("wall_s", UnitStat(sweep.wall));
  r->Set("cpu_s", UnitStat(sweep.cpu));
  r->Set("disk_mb", static_cast<double>(TreeBytes(pass_dir)) / 1e6);
  r->notes.push_back("rounds " + std::to_string(rounds) + ", W=" +
                     std::to_string(ropts.workers));
  SetHitMetrics(samples,
                "pool row samples, rows x sweeps (mixes have no cache: every "
                "row is cold)",
                r);
  r->Set("runner.job_p50_ms", Median(hits));
  r->Set("runner.retries", retries);
  r->Set("trace.overhead_s", traced_wall - untraced_wall);

  if (traced) {
    // The same rows in process, layer by layer: per-program compile, the
    // solo runs weighted speedup needs, then the mix. Their CPU against
    // the sweep's is the pool's overhead.
    std::map<std::string, PreparedWorkload> local;
    double smt_s = 0, smt_cyc = 0, cmp_s = 0, cmp_cyc = 0, ws = 0;
    double cycles = 0;
    const double c0 = ThreadCpuS();
    for (std::size_t n = 0; n < nrows; ++n) {
      const runner::Manifest& m = ms[rows[n].manifest];
      const runner::JobSpec& job = jobs[rows[n].manifest][rows[n].job];
      const runner::ConfigSpec& spec = m.configs[job.config];
      const EvalOptions eopts = runner::MakeEvalOptions(m.defaults, spec);
      const CoreConfig cfg = runner::MakeCoreConfig(spec);
      std::vector<const Program*> progs;
      std::vector<double> solo;
      for (const std::string& w : job.workloads) {
        const std::string key = w + "|" + std::to_string(eopts.ref_seed);
        if (local.count(key) == 0) {
          ScopedSpan s("compiler.PrepareWorkload", static_cast<int>(n));
          local.emplace(key, PrepareWorkload(w, eopts));
        }
        const PreparedWorkload& pw = local.at(key);
        progs.push_back(runner::ResolveBinary(spec) == "plain" ? &pw.plain
                                                               : &pw.annotated);
        ScopedSpan s("cpu.RunConfig", static_cast<int>(n));
        solo.push_back(RunConfig(*progs.back(), cfg, eopts).ipc);
      }
      const double t0 = NowS();
      MixRunStats mix;
      {
        ScopedSpan s("eval.RunMix", static_cast<int>(n));
        mix = RunMix(progs, job.workloads, cfg, eopts, spec.cores, &solo);
      }
      const double dt = NowS() - t0;
      (spec.cores > 1 ? cmp_s : smt_s) += dt;
      (spec.cores > 1 ? cmp_cyc : smt_cyc) += static_cast<double>(mix.cycles);
      ws += mix.weighted_speedup / static_cast<double>(nrows);
      cycles += static_cast<double>(mix.cycles);
      const JsonValue* st = last_rows[n].Find("stats");
      r->Check(st != nullptr && MixRunStatsToJson(mix).Dump() == st->Dump(),
               runner::JobId(m, job) + ": in-process mix differs from pool row");
    }
    const double inproc_cpu = ThreadCpuS() - c0;
    r->Set("runner.pool_overhead_s", UnitStat(sweep.cpu) - inproc_cpu);
    r->Set("cpu.smt_ns_per_cycle", smt_cyc > 0 ? smt_s / smt_cyc * 1e9 : 0.0);
    r->Set("cpu.cmp_ns_per_cycle", cmp_cyc > 0 ? cmp_s / cmp_cyc * 1e9 : 0.0);
    r->Set("eval.weighted_speedup", ws);
    r->Set("cpu.cycles", cycles);
  }
  SelfTest(sample, r);
}

}  // namespace hostbench
