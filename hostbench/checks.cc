#include "checks.h"

#include <fstream>
#include <sstream>

#include "runner/runner.h"

namespace hostbench {

using spear::telemetry::JsonValue;

std::string OutputsMatch(const std::vector<std::uint32_t>& core,
                         const std::vector<std::uint32_t>& emulator) {
  if (core.size() != emulator.size()) {
    return "core committed " + std::to_string(core.size()) +
           " out values, emulator " + std::to_string(emulator.size());
  }
  for (std::size_t i = 0; i < core.size(); ++i) {
    if (core[i] != emulator[i]) {
      return "out value " + std::to_string(i) + ": core " +
             std::to_string(core[i]) + ", emulator " +
             std::to_string(emulator[i]);
    }
  }
  return "";
}

std::string RowSane(const RowFacts& f) {
  if (!(f.ipc > 0.0) || f.ipc > f.width) {
    return "IPC " + std::to_string(f.ipc) + " outside (0, " +
           std::to_string(f.width) + "]";
  }
  if (f.l2_misses > f.l1d_misses) {
    return "L2 misses " + std::to_string(f.l2_misses) + " > L1D misses " +
           std::to_string(f.l1d_misses);
  }
  if (f.base && f.triggers != 0) {
    return "base row fired " + std::to_string(f.triggers) + " triggers";
  }
  return "";
}

std::string SameBytes(const std::string& what, const std::string& a,
                      const std::string& b) {
  if (a == b) return "";
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  const std::size_t from = i > 40 ? i - 40 : 0;
  return what + " differ at byte " + std::to_string(i) + ": '" +
         a.substr(from, 80) + "' vs '" + b.substr(from, 80) + "'";
}

JsonValue Without(const JsonValue& v, const std::vector<std::string>& keys) {
  JsonValue out = JsonValue::Object();
  for (const auto& [k, m] : v.members()) {
    bool drop = false;
    for (const std::string& key : keys) drop = drop || k == key;
    if (!drop) out.Set(k, m);
  }
  return out;
}

std::string StripCosim(const JsonValue& row) {
  JsonValue out = Without(row, {"stats"});
  if (const JsonValue* st = row.Find("stats")) {
    out.Set("stats", Without(*st, {"cosim_checked", "cosim_diverged"}));
  }
  return out.Dump();
}

std::string DocRoundTrip(const spear::runner::Manifest& m, JsonValue rows,
                         const std::string& dir, Report* r, bool* failed) {
  JsonValue doc;
  {
    ScopedSpan s("runner.BuildRunnerDocument");
    doc = spear::runner::BuildRunnerDocument(m, std::move(rows));
  }
  std::string path;
  {
    ScopedSpan s("runner.WriteRunnerDoc");
    path = spear::runner::WriteRunnerDoc(doc, dir, m.name);
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  JsonValue back;
  std::string err;
  bool parsed = false;
  {
    ScopedSpan s("telemetry.JsonParse");
    parsed = spear::telemetry::JsonParse(text.str(), &back, &err);
  }
  std::string bytes;
  {
    ScopedSpan s("telemetry.Dump");
    bytes = doc.Dump();
  }
  if (!parsed || back.Dump() != bytes) {
    *failed = true;
    r->CheckFailed("results document " + path +
                   " does not read back: " + err);
  }
  return bytes;
}

int SelfTest(const SelfTestData& d, Report* r) {
  int fired = 0;
  int tried = 0;
  auto expect_fire = [&](const std::string& name, const std::string& verdict) {
    ++tried;
    if (verdict.empty()) {
      r->CheckFailed("self-test: check '" + name + "' did not fire");
    } else {
      ++fired;
    }
  };
  if (!d.outputs.empty()) {
    std::vector<std::uint32_t> bad = d.outputs;
    bad[bad.size() / 2] ^= 1u;
    expect_fire("outputs", OutputsMatch(bad, d.outputs));
  }
  RowFacts f = d.facts;
  f.ipc = 0.0;
  expect_fire("ipc>0", RowSane(f));
  f = d.facts;
  f.ipc = f.width * 2;
  expect_fire("ipc<=width", RowSane(f));
  f = d.facts;
  f.l2_misses = f.l1d_misses + 1;
  expect_fire("l2<=l1d", RowSane(f));
  f = d.facts;
  f.base = true;
  f.triggers = 1;
  expect_fire("base-no-triggers", RowSane(f));
  if (d.lockstep_fired >= 0) {
    expect_fire("lockstep", d.lockstep_fired == 1 ? "fired" : "");
  }
  if (!d.row_bytes.empty()) {
    std::string bad = d.row_bytes;
    bad[bad.size() / 2] ^= 1;
    expect_fire("bytes", SameBytes("rows", bad, d.row_bytes));
  }
  r->Check(RowSane(d.facts).empty(), "self-test sample row is not sane");
  r->notes.push_back("self-test: " + std::to_string(fired) + "/" +
                     std::to_string(tried) + " corrupted checks fired");
  return fired;
}

}  // namespace hostbench
