// Microcoded control (Section 2): "If microcoded control is chosen instead,
// a control step corresponds to a microprogram step and the microprogram
// can be optimized using encoding techniques for the microcontrol word."
//
// Two microword organizations are produced from the same controller:
//   - Horizontal: one bit per enable, one-hot mux-select and function
//     fields — fastest decode, widest words;
//   - Encoded (vertical-ish): log2-packed select/function fields — the
//     paper's "encoding techniques for the microcontrol word".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ctrl/fsm.h"

namespace mphls {

enum class MicrocodeStyle { Horizontal, Encoded };

[[nodiscard]] std::string_view microcodeStyleName(MicrocodeStyle s);

struct MicroField {
  std::string name;
  int width = 0;
  int offset = 0;  ///< bit offset in the word
};

struct Microprogram {
  MicrocodeStyle style = MicrocodeStyle::Encoded;
  std::vector<MicroField> fields;
  int wordWidth = 0;
  int addrBits = 0;
  /// One word per controller state, as field values in field order.
  std::vector<std::vector<std::uint64_t>> words;
  /// Distinct branch-condition sources; the useq_condsel field indexes
  /// this table (a real microsequencer's condition-select mux).
  std::vector<Source> condTable;
  std::uint64_t entryAddress = 0;
  std::uint64_t haltAddress = 0;

  /// Microstore area: words x word width (bit count).
  [[nodiscard]] double storeBits() const {
    return static_cast<double>(words.size()) * wordWidth;
  }
  [[nodiscard]] const MicroField* field(const std::string& name) const;
  /// Whether select/function field `f` holds a one-hot word or an index.
  /// Horizontal fields are one-hot, but a field value is one 64-bit word,
  /// so a horizontal field wider than 64 bits holds the index of its hot
  /// bit.
  [[nodiscard]] bool oneHot(int f) const {
    return style == MicrocodeStyle::Horizontal &&
           fields[(std::size_t)f].width <= 64;
  }
  [[nodiscard]] std::string dump() const;
};

[[nodiscard]] Microprogram buildMicrocode(const Controller& ctrl,
                                          const InterconnectResult& ic,
                                          const FuBinding& binding,
                                          MicrocodeStyle style);

}  // namespace mphls
