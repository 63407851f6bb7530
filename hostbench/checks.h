// Output checks. Each compares the program's output with a computation
// made apart from it (the functional emulator, a fresh or in-process
// re-run) or with a property the method must have. They run outside the
// timed pass, in every run; SelfTest() corrupts one word of real data
// from the run and requires every check to fire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "runner/manifest.h"
#include "telemetry/json.h"

namespace hostbench {

// "" when the check passes, else what differs.
std::string OutputsMatch(const std::vector<std::uint32_t>& core,
                         const std::vector<std::uint32_t>& emulator);

struct RowFacts {
  double ipc = 0;
  double width = 0;            // issue width (x cores for CMP)
  std::uint64_t l1d_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t triggers = 0;
  bool base = false;           // p-threads off: no trigger may fire
};
// 0 < IPC <= issue width, L2 misses <= L1D misses, base rows fire no
// triggers.
std::string RowSane(const RowFacts& f);

// Byte identity of two documents or rows (callers strip `run` first).
std::string SameBytes(const std::string& what, const std::string& a,
                      const std::string& b);

// A copy of `v` without the listed top-level members.
spear::telemetry::JsonValue Without(const spear::telemetry::JsonValue& v,
                                    const std::vector<std::string>& keys);

// A row's compact bytes without the counters lockstep cosim adds to its
// stats: a row re-run under cosim must match the original otherwise.
std::string StripCosim(const spear::telemetry::JsonValue& row);

// The results document of one pass: BuildRunnerDocument over `rows`,
// WriteRunnerDoc into `dir`, then JsonParse of the file, which must give
// the document back. Returns the compact document bytes; a failure is
// recorded in *r and sets *failed.
std::string DocRoundTrip(const spear::runner::Manifest& m,
                         spear::telemetry::JsonValue rows,
                         const std::string& dir, Report* r, bool* failed);

// Sample data for the self-test, taken from the run's own rows.
struct SelfTestData {
  std::vector<std::uint32_t> outputs;  // a row's committed out values
  RowFacts facts;                      // a sane base row
  std::string row_bytes;               // a row compared byte for byte
  int lockstep_fired = -1;  // injected cosim run: 1 caught, 0 missed, -1 none
};

// Corrupts one word of each sample and records a failed check for every
// check that does not fire. Returns how many fired.
int SelfTest(const SelfTestData& d, Report* r);

}  // namespace hostbench
