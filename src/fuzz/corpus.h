// Fuzz corpus management: failing programs (and their minimized forms)
// are saved as self-describing .bdl files whose metadata rides in comment
// lines, so every corpus entry is simultaneously a valid BDL compilation
// unit and a replayable record of what failed:
//
//   # mphls-fuzz seed: 1234
//   # mphls-fuzz kind: mismatch
//   # mphls-fuzz point: sched=list fu=greedy reg=leftedge ...
//   # mphls-fuzz note: output mismatch on in0=0 ...
//   proc fuzz(...) { ... }
//
// loadCorpus returns entries in filename order so replay runs — and the
// regression suite built on tests/fixtures/fuzz/ — are deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mphls::fuzz {

struct CorpusEntry {
  std::string name;        ///< file stem, e.g. "seed-000042"
  std::uint64_t seed = 0;
  std::string kind;        ///< "mismatch" | "check" | "error" | "fixture" ...
  std::string point;       ///< matrix-point label of the first failure
  std::string note;        ///< one-line failure description
  std::string source;      ///< the full file text (metadata comments + BDL)
  /// Why the metadata header is unreadable (a seed tag that is not a
  /// number), or "" when it is well-formed. Replay reports a corrupt entry
  /// as failing instead of running it under a made-up seed.
  std::string corrupt;
};

/// Serialize an entry (metadata header + program text). Newlines inside
/// the note are flattened so the header stays line-oriented.
[[nodiscard]] std::string renderEntry(const CorpusEntry& entry,
                                      const std::string& program);

/// Parse an entry from file text. Unknown header keys are ignored; a seed
/// tag that parseU64 rejects marks the entry `corrupt`. `source` keeps the
/// complete text (the header lines are BDL comments).
[[nodiscard]] CorpusEntry parseEntry(const std::string& text,
                                     const std::string& name);

/// Write `dir/name.bdl`, creating `dir` if needed. Returns the path, or
/// nullopt on I/O failure.
std::optional<std::string> saveEntry(const std::string& dir,
                                     const CorpusEntry& entry,
                                     const std::string& program);

/// Load every *.bdl under `dir` (non-recursive), sorted by filename.
[[nodiscard]] std::vector<CorpusEntry> loadCorpus(const std::string& dir);

}  // namespace mphls::fuzz
