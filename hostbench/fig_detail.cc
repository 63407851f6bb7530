// fig-detail: the Figure 6 matrix in process — 15 kernels x {base,
// spear128, spear256}, 400k committed instructions after a 50k
// fast-forward. One row is one timed unit. A kernel's base row
// fast-forwards and saves the SPCK checkpoint; its spear rows load it (the
// runner's warm checkpoint path), so they are the workload's warm rows.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>

#include "bench.h"
#include "checks.h"
#include "cosim/cosim.h"
#include "cpu/core.h"
#include "eval/harness.h"
#include "runner/checkpoint.h"
#include "runner/manifest.h"
#include "runner/runner.h"
#include "sim/emulator.h"
#include "telemetry/json.h"

namespace hostbench {

namespace fs = std::filesystem;
using namespace spear;
using telemetry::JsonValue;

namespace {

// The simulated counts a timed row must repeat exactly.
struct RowCounts {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t l1d = 0;
  std::uint64_t l2 = 0;
  std::uint64_t triggers = 0;
  bool operator==(const RowCounts&) const = default;
};

RowCounts CountsOf(const RunStats& s) {
  return {s.cycles, s.instructions, s.l1d_misses_main, s.l2_misses_main,
          s.triggers};
}

std::string Describe(const RowCounts& s) {
  std::ostringstream o;
  o << "cycles=" << s.cycles << " instrs=" << s.instructions
    << " l1d=" << s.l1d << " l2=" << s.l2 << " triggers=" << s.triggers;
  return o.str();
}

}  // namespace

void RunFigDetail(const Options& o, Report* r) {
  runner::Manifest m;
  std::string err;
  if (!runner::LoadManifestFile(o.repo + "/bench/manifests/fig6.json", &m,
                                &err)) {
    r->CheckFailed("fig6 manifest: " + err);
    return;
  }
  m.defaults.ref_seed = o.seed;
  m.defaults.profile_seed = ProfileSeed(o.seed);
  if (o.smoke) {
    m.defaults.sim_instrs = 5000;
    m.defaults.ff_instrs = 2000;
    m.workloads.resize(3);
  }
  const std::size_t nk = m.workloads.size();
  const std::size_t nc = m.configs.size();
  const std::size_t nrows = nk * nc;  // workload-major, like ExpandJobs
  const std::vector<runner::JobSpec> jobs = runner::ExpandJobs(m);
  const EvalOptions eopts = runner::MakeEvalOptions(m.defaults, m.configs[0]);
  std::vector<CoreConfig> cfgs;
  for (const runner::ConfigSpec& c : m.configs) {
    cfgs.push_back(runner::MakeCoreConfig(c));
  }
  const bool traced = GlobalTracer().on();

  // Setup: compile every kernel (reference build + SPEAR post-compile on
  // the profiling input).
  const std::vector<PreparedWorkload> pw =
      PrepareKernels(m.workloads, eopts, traced || o.smoke ? 1 : 2, r);
  auto prog_of = [&](std::size_t k, std::size_t c) -> const Program& {
    return runner::ResolveBinary(m.configs[c]) == "plain" ? pw[k].plain
                                                          : pw[k].annotated;
  };
  auto key_of = [&](std::size_t k) {
    runner::CheckpointKey key;
    key.workload = m.workloads[k];
    key.seed = m.defaults.ref_seed;
    key.ff_instrs = m.defaults.ff_instrs;
    key.scale = m.defaults.scale;
    key.l1d = cfgs[0].mem.l1d;
    key.l2 = cfgs[0].mem.l2;
    key.bpred = cfgs[0].bpred;
    return key;
  };

  // Output checks (untimed) on a seeded subset of kernels, all three
  // rows each (the subset changes with the seed, so the seeds of a set of
  // runs cover the matrix): each row on a directly driven core under the
  // lockstep checker (every commit against a shadow emulator), its
  // committed out values against a separate emulator run of the same
  // committed count, and spear rows' out values against their base row.
  // Every row of every round gets the property checks and must repeat
  // its simulated counts below. Checking all 45 rows in lockstep would
  // add a pass of ~13 s to every run.
  const std::vector<std::size_t> subset = SeededSubset(o.seed, nk, 3);
  std::vector<std::optional<RowCounts>> expect(nrows);
  std::vector<std::vector<std::uint32_t>> outputs(nrows);
  SelfTestData sample;
  double emu_instrs = 0, commits_checked = 0, outs_checked = 0;
  for (std::size_t k : subset) {
    const runner::FastForwardResult ff =
        runner::FastForward(pw[k].plain, key_of(k));
    if (ff.state.halted) {
      r->CheckFailed(m.workloads[k] + " halted during fast-forward");
      continue;
    }
    for (std::size_t c = 0; c < nc; ++c) {
      const std::size_t row = k * nc + c;
      Core core(prog_of(k, c), cfgs[c]);
      core.InstallWarmState(ff.state);
      cosim::CosimChecker checker(prog_of(k, c));
      checker.SyncToWarmState(ff.state);
      core.set_cosim(&checker);
      const RunResult rr = core.Run(m.defaults.sim_instrs, m.defaults.max_cycles);
      outputs[row] = core.outputs();
      expect[row] = RowCounts{rr.cycles, rr.instructions,
                              core.hierarchy().l1d().misses(kMainThread),
                              core.hierarchy().l2().misses(kMainThread),
                              core.stats().triggers_fired};
      const std::string id = runner::JobId(m, jobs[row]);
      r->Check(checker.ok(), id + ": " + checker.Summary());
      commits_checked += static_cast<double>(checker.stats().commits_checked);
      outs_checked += static_cast<double>(outputs[row].size());
      // The emulator, run from program start, past the fast-forward and
      // then exactly the row's committed count.
      Emulator emu(pw[k].plain);
      {
        std::size_t before = 0;
        {
          ScopedSpan s("sim.Emulator::Run", static_cast<int>(k * nc + c));
          emu.Run(ff.executed);
          before = emu.outputs().size();
          emu.Run(rr.instructions);
        }
        const std::vector<std::uint32_t> ref(
            emu.outputs().begin() + static_cast<std::ptrdiff_t>(before),
            emu.outputs().end());
        const std::string v = OutputsMatch(outputs[row], ref);
        r->Check(v.empty(), id + ": " + v);
        if (sample.outputs.empty() && !ref.empty()) sample.outputs = ref;
      }
      emu_instrs += static_cast<double>(ff.executed + rr.instructions);
      if (c > 0) {
        // p-threads never change architectural state: same outputs as
        // base over the shared prefix of committed instructions.
        const std::vector<std::uint32_t>& base = outputs[k * nc];
        const std::vector<std::uint32_t>& mine = outputs[row];
        const std::size_t n = std::min(base.size(), mine.size());
        const std::string v = OutputsMatch(
            std::vector<std::uint32_t>(mine.begin(),
                                       mine.begin() + static_cast<std::ptrdiff_t>(n)),
            std::vector<std::uint32_t>(base.begin(),
                                       base.begin() + static_cast<std::ptrdiff_t>(n)));
        r->Check(v.empty(), id + " vs base: " + v);
      } else if (k == subset.front()) {
        // The lockstep checker must catch one corrupted commit record.
        Core bad(prog_of(k, c), cfgs[c]);
        bad.InstallWarmState(ff.state);
        cosim::CosimChecker::Config inject;
        inject.inject_at = 100;
        cosim::CosimChecker injected(prog_of(k, c), inject);
        injected.SyncToWarmState(ff.state);
        bad.set_cosim(&injected);
        bad.Run(1000, m.defaults.max_cycles);
        sample.lockstep_fired = injected.ok() ? 0 : 1;
      }
    }
  }
  r->Set("_emu_instrs", emu_instrs);
  std::string names;
  for (std::size_t k : subset) names += " " + m.workloads[k];
  r->notes.push_back("lockstep subset:" + names + "; checked " +
                     std::to_string(static_cast<long>(commits_checked)) +
                     " commits in lockstep and " +
                     std::to_string(static_cast<long>(outs_checked)) +
                     " out values against the emulator");

  // Timed rounds. Unit i < nrows is row i; unit nrows is the results
  // document (build, write, parse back).
  const std::string pass_dir = o.work_dir + "/pass";
  const std::string ckpt_dir = pass_dir + "/ckpt";
  UnitClock clock(nrows + 1);
  std::vector<double> rc_s(nrows, 0.0);  // RunConfig time, last round
  std::vector<RunStats> last(nrows);
  std::vector<bool> unit_failed(nrows + 1, false);
  std::string doc_bytes;
  Tracer& tracer = GlobalTracer();
  // A traced run makes one untraced round and one traced round, so the
  // tracing overhead is measured on identical work.
  const double seconds = traced || o.smoke ? 0.0 : o.seconds;
  if (traced) tracer.Disable();
  const int rounds = RunRounds(
      seconds, 2, static_cast<int>(nk),
      [&](int round, const std::vector<int>& order) {
        if (traced && round == 1) tracer.Enable();
        std::error_code ec;
        fs::remove_all(pass_dir, ec);
        fs::create_directories(ckpt_dir);
        for (int ki : order) {
          const std::size_t k = static_cast<std::size_t>(ki);
          const runner::CheckpointKey key = key_of(k);
          for (std::size_t c = 0; c < nc; ++c) {
            const std::size_t row = k * nc + c;
            clock.Time(row, [&] {
              WarmState warm;
              if (c == 0) {
                ScopedSpan s1("runner.FastForward", static_cast<int>(row));
                warm = std::move(runner::FastForward(pw[k].plain, key).state);
                ScopedSpan s2("runner.SaveCheckpoint", static_cast<int>(row));
                runner::SaveCheckpoint(ckpt_dir, key, warm);
              } else {
                ScopedSpan s("runner.LoadCheckpoint", static_cast<int>(row));
                if (!runner::LoadCheckpoint(ckpt_dir, key, &warm, &err)) {
                  unit_failed[row] = true;
                  r->CheckFailed("checkpoint load: " + err);
                  return;
                }
              }
              const double t0 = NowS();
              ScopedSpan s("cpu.RunConfig", static_cast<int>(row));
              last[row] = RunConfig(prog_of(k, c), cfgs[c], eopts, &warm);
              rc_s[row] = NowS() - t0;
            });
            // The timed row repeats the checked row's simulated counts
            // (or, outside the subset, round 0's), and is sane.
            const std::string id = runner::JobId(m, jobs[row]);
            const RunStats& s = last[row];
            if (!expect[row]) expect[row] = CountsOf(s);
            RowFacts f;
            f.ipc = s.ipc;
            f.width = cfgs[c].issue_width;
            f.l1d_misses = s.l1d_misses_main;
            f.l2_misses = s.l2_misses_main;
            f.triggers = s.triggers;
            f.base = !cfgs[c].spear.enabled;
            const std::string sane = RowSane(f);
            if (!(CountsOf(s) == *expect[row]) || !s.complete ||
                !sane.empty()) {
              unit_failed[row] = true;
              r->CheckFailed(id + ": " + sane + " " + Describe(CountsOf(s)) +
                             " expected " + Describe(*expect[row]) +
                             (s.complete ? "" : " incomplete"));
            }
            if (row == subset.front() * nc) sample.facts = f;
          }
        }
        clock.Time(nrows, [&] {
          JsonValue rows = JsonValue::Array();
          for (std::size_t i = 0; i < nrows; ++i) {
            JsonValue row = JsonValue::Object();
            row.Set("id", JsonValue(runner::JobId(m, jobs[i])));
            row.Set("workload", JsonValue(jobs[i].workload));
            row.Set("config", JsonValue(m.configs[jobs[i].config].label));
            row.Set("stats", RunStatsToJson(last[i]));
            rows.Append(std::move(row));
          }
          bool failed = false;
          doc_bytes = DocRoundTrip(m, std::move(rows), pass_dir, r, &failed);
          if (failed) unit_failed[nrows] = true;
        });
      });
  r->Set("peak_rss_mb", PeakRssMb());

  const std::vector<UnitSamples>& units = clock.units();
  std::vector<double> hits;
  for (std::size_t u = 0; u < nrows; ++u) {
    if (u % nc != 0) hits.push_back(1e3 * UnitStat(units[u].wall));
  }
  r->attempted = nrows + 1;
  for (bool f : unit_failed) r->failed += f ? 1 : 0;
  r->Set("wall_s", SumOverUnits(units, false));
  r->Set("cpu_s", SumOverUnits(units, true));
  r->notes.push_back(AltStatNote(units));
  r->Set("disk_mb", static_cast<double>(TreeBytes(pass_dir)) / 1e6);
  r->notes.push_back("rounds " + std::to_string(rounds));
  SetHitMetrics(hits, "checkpoint-restored rows", r);

  // Per-layer figures (read from the last round; in a traced run that is
  // the traced one).
  double base_cyc = 0, spear_cyc = 0, base_t = 0, spear_t = 0, instrs = 0;
  double wrong = 0, l1 = 0, l2 = 0, trig = 0, sess = 0;
  for (std::size_t i = 0; i < nrows; ++i) {
    const RunStats& s = last[i];
    const bool base = i % nc == 0;
    (base ? base_cyc : spear_cyc) += static_cast<double>(s.cycles);
    (base ? base_t : spear_t) += rc_s[i];
    instrs += static_cast<double>(s.instructions);
    wrong += static_cast<double>(s.dispatched_wrongpath);
    l1 += static_cast<double>(s.l1d_misses_main + s.l1d_misses_pthread);
    l2 += static_cast<double>(s.l2_misses_main + s.l2_misses_pthread);
    trig += static_cast<double>(s.triggers);
    sess += static_cast<double>(s.sessions);
  }
  r->Set("cpu.ns_per_cycle.base", base_t / base_cyc * 1e9);
  r->Set("cpu.ns_per_cycle.spear", spear_t / spear_cyc * 1e9);
  r->Set("cpu.ns_per_instr", (base_t + spear_t) / instrs * 1e9);
  r->Set("cpu.cycles", base_cyc + spear_cyc);
  r->Set("cpu.commit_per_dispatch", instrs / (instrs + wrong));
  r->Set("mem.l1d_misses", l1);
  r->Set("mem.l2_misses", l2);
  r->Set("spear.sessions_per_trigger", trig > 0 ? sess / trig : 0.0);
  JsonValue doc;
  if (telemetry::JsonParse(doc_bytes, &doc, &err)) {
    if (const JsonValue* v = doc.FindPath("derived.avg_speedup_128")) {
      r->Set("spear.speedup_128", v->AsDouble());
    }
    if (const JsonValue* v = doc.FindPath("derived.avg_speedup_256")) {
      r->Set("spear.speedup_256", v->AsDouble());
    }
  }
  r->Set("trace.overhead_s", clock.TracingOverheadS());
  sample.row_bytes = doc_bytes;
  SelfTest(sample, r);
}

}  // namespace hostbench
