// sampled-scaled: SMARTS-sampled rows of mcf, gzip, equake and pointer at
// scale 20 (regions of ~15-20M instructions; period 400k, detail 2k,
// warmup 4k). Per kernel, the base row runs fresh and builds the SPCK v2
// checkpoint tree cold; the spear256 row loads that tree and replays it
// (trees are shared by configs of equal cache and predictor geometry), so
// the replays are the workload's warm rows. One row is one timed unit.
#include <filesystem>

#include "bench.h"
#include "checks.h"
#include "eval/harness.h"
#include "runner/checkpoint.h"
#include "runner/manifest.h"
#include "sampling/sampled_run.h"
#include "sim/emulator.h"

namespace hostbench {

namespace fs = std::filesystem;
using namespace spear;
using telemetry::JsonValue;

void RunSampledScaled(const Options& o, Report* r) {
  runner::Manifest m;
  std::string err;
  if (!runner::LoadManifestFile(o.repo + "/bench/manifests/fig6_sampled.json",
                                &m, &err)) {
    r->CheckFailed("fig6_sampled manifest: " + err);
    return;
  }
  m.name = "sampled_scaled";
  m.workloads = {"mcf", "gzip", "equake", "pointer"};
  m.configs = {m.configs.front(), m.configs.back()};  // base, spear256
  m.defaults.ref_seed = o.seed;
  m.defaults.profile_seed = ProfileSeed(o.seed);
  m.defaults.scale = 20;
  m.defaults.sim_instrs = 20'000'000;
  m.defaults.sampling.period = 400'000;
  m.defaults.sampling.detail = 2'000;
  m.defaults.sampling.warmup = 4'000;
  if (o.smoke) {
    m.defaults.scale = 1;
    m.defaults.sim_instrs = 60'000;
    m.defaults.sampling.period = 20'000;
  }
  const sampling::SamplingPlan& plan = m.defaults.sampling;
  const std::size_t nk = m.workloads.size();
  const std::size_t nrows = nk * 2;
  const std::vector<runner::JobSpec> jobs = runner::ExpandJobs(m);
  const EvalOptions eopts = runner::MakeEvalOptions(m.defaults, m.configs[0]);
  const CoreConfig base_cfg = runner::MakeCoreConfig(m.configs[0]);
  const CoreConfig spear_cfg = runner::MakeCoreConfig(m.configs[1]);
  const bool traced = GlobalTracer().on();

  const std::vector<PreparedWorkload> pw =
      PrepareKernels(m.workloads, eopts, traced || o.smoke ? 1 : 2, r);
  auto key_of = [&](std::size_t k) {
    runner::CheckpointTreeKey key;
    key.base.workload = m.workloads[k];
    key.base.seed = m.defaults.ref_seed;
    key.base.ff_instrs = m.defaults.ff_instrs;
    key.base.scale = m.defaults.scale;
    key.base.l1d = base_cfg.mem.l1d;
    key.base.l2 = base_cfg.mem.l2;
    key.base.bpred = base_cfg.bpred;
    key.sim_instrs = m.defaults.sim_instrs;
    key.period = plan.period;
    key.detail = plan.detail;
    key.warmup = plan.warmup;
    return key;
  };

  const std::string pass_dir = o.work_dir + "/pass";
  const std::string tree_dir = pass_dir + "/trees";
  UnitClock clock(nrows + 1);
  std::vector<std::string> first_bytes(nrows);  // round 0's row, per row
  std::vector<sampling::SampledStats> last(nrows);
  std::vector<bool> unit_failed(nrows + 1, false);
  std::string doc_bytes;
  std::uint64_t tree_bytes = 0;
  Tracer& tracer = GlobalTracer();
  if (traced) tracer.Disable();
  const int rounds = RunRounds(
      traced || o.smoke ? 0.0 : o.seconds, 2, static_cast<int>(nk),
      [&](int round, const std::vector<int>& order) {
        if (traced && round == 1) tracer.Enable();
        std::error_code ec;
        fs::remove_all(pass_dir, ec);
        fs::create_directories(tree_dir);
        for (int ki : order) {
          const std::size_t k = static_cast<std::size_t>(ki);
          const runner::CheckpointTreeKey key = key_of(k);
          const std::size_t b = k * 2;
          clock.Time(b, [&] {
            runner::CheckpointTree tree;
            {
              ScopedSpan s("sampling.RunSampled", static_cast<int>(b));
              last[b] = sampling::RunSampled(pw[k].plain, pw[k].plain, base_cfg,
                                             eopts, plan, m.defaults.ff_instrs,
                                             &tree);
            }
            ScopedSpan s("runner.SaveCheckpointTree", static_cast<int>(b));
            if (!runner::SaveCheckpointTree(tree_dir, key, tree, &err)) {
              unit_failed[b] = true;
              r->CheckFailed("tree save: " + err);
            }
          });
          clock.Time(b + 1, [&] {
            runner::CheckpointTree tree;
            {
              ScopedSpan s("runner.LoadCheckpointTree", static_cast<int>(b + 1));
              if (!runner::LoadCheckpointTree(tree_dir, key, &tree, &err)) {
                unit_failed[b + 1] = true;
                r->CheckFailed("tree load: " + err);
                return;
              }
            }
            ScopedSpan s("sampling.RunSampledFromTree", static_cast<int>(b + 1));
            last[b + 1] = sampling::RunSampledFromTree(pw[k].annotated, spear_cfg,
                                                       eopts, plan, tree);
          });
          for (std::size_t row : {b, b + 1}) {
            const std::string bytes =
                sampling::SampledStatsToJson(last[row]).Dump();
            if (round == 0) first_bytes[row] = bytes;
            const std::string v = SameBytes("rows of two rounds", bytes,
                                            first_bytes[row]);
            if (!v.empty() || !last[row].stats.complete) {
              unit_failed[row] = true;
              r->CheckFailed(runner::JobId(m, jobs[row]) + ": " +
                             (v.empty() ? "incomplete" : v));
            }
          }
        }
        tree_bytes = TreeBytes(tree_dir);
        clock.Time(nrows, [&] {
          JsonValue rows = JsonValue::Array();
          for (std::size_t i = 0; i < nrows; ++i) {
            JsonValue row = JsonValue::Object();
            row.Set("id", JsonValue(runner::JobId(m, jobs[i])));
            row.Set("workload", JsonValue(jobs[i].workload));
            row.Set("config", JsonValue(m.configs[jobs[i].config].label));
            row.Set("stats", sampling::SampledStatsToJson(last[i]));
            rows.Append(std::move(row));
          }
          bool failed = false;
          doc_bytes = DocRoundTrip(m, std::move(rows), pass_dir, r, &failed);
          if (failed) unit_failed[nrows] = true;
        });
      });
  r->Set("peak_rss_mb", PeakRssMb());

  // Output checks (untimed), on the last round's trees and rows. The
  // replay check runs on one seeded kernel (a replay costs ~0.7 s).
  const std::size_t replayed = o.seed % nk;
  SelfTestData sample;
  double emu_instrs = 0;
  double intervals = 0;
  for (std::size_t k = 0; k < nk; ++k) {
    const std::size_t b = k * 2;
    const std::string id = runner::JobId(m, jobs[b]);
    // A replay of the base row from its tree is the fresh row, byte for
    // byte.
    runner::CheckpointTree tree;
    if (k == replayed &&
        !runner::LoadCheckpointTree(tree_dir, key_of(k), &tree, &err)) {
      r->CheckFailed(id + ": tree does not load: " + err);
    } else if (k == replayed) {
      const std::string replay =
          sampling::SampledStatsToJson(sampling::RunSampledFromTree(
                                           pw[k].plain, base_cfg, eopts, plan,
                                           tree))
              .Dump();
      const std::string v =
          SameBytes("fresh and replayed row", replay, first_bytes[b]);
      r->Check(v.empty(), id + ": " + v);
      sample.row_bytes = replay;
    }
    // The covered region is what the functional emulator executes after
    // the fast-forward, up to the region budget.
    Emulator emu(pw[k].plain);
    {
      ScopedSpan s("sim.Emulator::Run", static_cast<int>(b));
      emu.Run(m.defaults.ff_instrs + m.defaults.sim_instrs);
    }
    emu_instrs += static_cast<double>(emu.icount());
    const std::uint64_t region =
        emu.icount() > m.defaults.ff_instrs ? emu.icount() - m.defaults.ff_instrs
                                            : 0;
    for (std::size_t row : {b, b + 1}) {
      const sampling::SampledStats& ss = last[row];
      const std::string rid = runner::JobId(m, jobs[row]);
      r->Check(ss.covered_instrs == region,
               rid + ": covered " + std::to_string(ss.covered_instrs) +
                   " instructions, emulator " + std::to_string(region));
      RowFacts f;
      f.ipc = ss.stats.ipc;
      f.width = (row == b ? base_cfg : spear_cfg).issue_width;
      f.l1d_misses = ss.stats.l1d_misses_main;
      f.l2_misses = ss.stats.l2_misses_main;
      f.triggers = ss.stats.triggers;
      f.base = row == b;
      const std::string v = RowSane(f);
      r->Check(v.empty(), rid + ": " + v);
      if (row == b && k == 0) sample.facts = f;
      intervals += static_cast<double>(ss.intervals);
    }
  }
  r->Set("_emu_instrs", emu_instrs);
  std::string covered = "covered instructions:";
  for (std::size_t k = 0; k < nk; ++k) {
    covered += " " + m.workloads[k] + " " +
               std::to_string(last[2 * k].covered_instrs) + " (" +
               std::to_string(last[2 * k].intervals) + " intervals)";
  }
  r->notes.push_back(covered);

  const std::vector<UnitSamples>& units = clock.units();
  std::vector<double> hits;
  for (std::size_t u = 1; u < nrows; u += 2) {
    hits.push_back(1e3 * UnitStat(units[u].wall));
  }
  r->attempted = nrows + 1;
  for (bool f : unit_failed) r->failed += f ? 1 : 0;
  r->Set("wall_s", SumOverUnits(units, false));
  r->Set("cpu_s", SumOverUnits(units, true));
  r->notes.push_back(AltStatNote(units));
  r->Set("disk_mb", static_cast<double>(TreeBytes(pass_dir)) / 1e6);
  r->notes.push_back("rounds " + std::to_string(rounds));
  SetHitMetrics(hits, "tree-replayed rows", r);

  r->Set("runner.tree_mb", static_cast<double>(tree_bytes) / 1e6);
  r->Set("_intervals", intervals);
  double l1 = 0, l2 = 0, cycles = 0, sp = 0, trig = 0, sess = 0;
  for (std::size_t i = 0; i < nrows; ++i) {
    l1 += static_cast<double>(last[i].stats.l1d_misses_main);
    l2 += static_cast<double>(last[i].stats.l2_misses_main);
    cycles += static_cast<double>(last[i].stats.cycles);
    trig += static_cast<double>(last[i].stats.triggers);
    sess += static_cast<double>(last[i].stats.sessions);
    if (i % 2 == 1 && last[i - 1].stats.ipc > 0) {
      sp += last[i].stats.ipc / last[i - 1].stats.ipc / static_cast<double>(nk);
    }
  }
  r->Set("spear.sessions_per_trigger", trig > 0 ? sess / trig : 0.0);
  r->Set("mem.l1d_misses", l1);
  r->Set("mem.l2_misses", l2);
  r->Set("cpu.cycles", cycles);
  r->Set("spear.speedup_256", sp);
  r->Set("trace.overhead_s", clock.TracingOverheadS());
  SelfTest(sample, r);
}

}  // namespace hostbench
