#include "rtl/verilog.h"

#include <charconv>
#include <string_view>
#include <type_traits>

#include "common/bitutil.h"
#include "obs/trace.h"

namespace mphls {

namespace {

/// An unsigned number written in lowercase base 16, without prefix.
struct Hex {
  std::uint64_t v;
};

/// Appends text and numbers to the one output buffer of an emission.
/// Numbers go through std::to_chars (decimal, or base 16 for Hex), which
/// spells them exactly as the default-formatted iostreams did.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  Writer& operator<<(std::string_view s) {
    out_ += s;
    return *this;
  }
  Writer& operator<<(char c) {
    out_ += c;
    return *this;
  }
  template <class T, class = std::enable_if_t<std::is_integral_v<T>>>
  Writer& operator<<(T v) {
    return number(v, 10);
  }
  Writer& operator<<(Hex h) { return number(h.v, 16); }

 private:
  template <class T>
  Writer& number(T v, int base) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v, base);
    out_.append(buf, r.ptr);
    return *this;
  }

  std::string& out_;
};

/// "[w-1:0] " for a multi-bit declaration, nothing for a single bit.
void declWidth(Writer& v, int width) {
  if (width > 1) v << '[' << width - 1 << ":0] ";
}

void rootExpr(Writer& v, const RtlDesign& d, const Source& s) {
  switch (s.kind) {
    case Source::Kind::Reg: v << 'r' << s.id; break;
    case Source::Kind::Port:
      v << "in_" << d.fn.ports()[(std::size_t)s.id].name;
      break;
    case Source::Kind::Const:
      v << s.rootWidth << "'d"
        << truncBits((std::uint64_t)s.imm, s.rootWidth);
      break;
    case Source::Kind::Fu: v << "fu" << s.id << "_out"; break;
  }
}

/// The expression of `s` after its first `stages` wiring transforms: each
/// stage wraps the text of the stages before it, written in place (a
/// sign extension writes its operand twice).
void stagedExpr(Writer& v, const RtlDesign& d, const Source& s,
                std::size_t stages) {
  if (stages == 0) return rootExpr(v, d, s);
  const WireXform& x = s.xform[stages - 1];
  const int width = stages == 1 ? s.rootWidth : s.xform[stages - 2].width;
  auto inner = [&] { stagedExpr(v, d, s, stages - 1); };
  auto mask = [&] {
    v << "((";
    inner();
    v << ") & " << x.width << "'h" << Hex{truncBits(~0ULL, x.width)} << ')';
  };
  switch (x.kind) {
    case OpKind::ShlConst:
      v << '(' << x.width << "'d0 | ((";
      inner();
      v << ") << " << x.imm << "))";
      break;
    case OpKind::ShrConst:
      v << "((";
      inner();
      v << ") >> " << x.imm << ')';
      break;
    case OpKind::SarConst:
      v << "($signed({{" << std::max(x.width - width, 0) << "{1'b0}}, ";
      inner();
      v << "}) >>> " << x.imm << ')';
      break;
    case OpKind::Trunc:
      if (x.width >= 63) {
        v << '(';
        inner();
        v << ')';
      } else {
        mask();
      }
      break;
    case OpKind::ZExt:
      // Width narrowing can shrink an extension's result below its source
      // width; extension then truncates, i.e. keeps the low result bits.
      if (x.width <= width) {
        mask();
      } else {
        v << '{' << (x.width - width) << "'d0, ";
        inner();
        v << '}';
      }
      break;
    case OpKind::SExt:
      if (x.width <= width) {
        mask();
      } else {
        v << "{{" << (x.width - width) << "{(";
        inner();
        v << ")[" << width - 1 << "]}}, ";
        inner();
        v << '}';
      }
      break;
    default:
      inner();
      break;
  }
}

void sourceExpr(Writer& v, const RtlDesign& d, const Source& s) {
  stagedExpr(v, d, s, s.xform.size());
}

/// The right-hand side of one FU action: the operator applied to the
/// selected mux legs, each parenthesized; an absent operand reads "0".
void opExpr(Writer& v, const RtlDesign& d, const FuAction& fa) {
  const int arity = fa.kind == OpKind::Select ? 3 : opArity(fa.kind);
  auto operand = [&](int p) {
    if (p >= arity) {
      v << '0';
      return;
    }
    const MuxSpec& mux = d.ic.fuInput[(std::size_t)fa.fu][(std::size_t)p];
    v << '(';
    sourceExpr(v, d, mux.sources[(std::size_t)fa.muxSel[p]]);
    v << ')';
  };
  auto a = [&] { operand(0); };
  auto b = [&] { operand(1); };
  auto sa = [&] {
    v << "$signed(";
    a();
    v << ')';
  };
  auto sb = [&] {
    v << "$signed(";
    b();
    v << ')';
  };
  auto infix = [&](auto lhs, std::string_view op, auto rhs) {
    lhs();
    v << op;
    rhs();
  };
  switch (fa.kind) {
    case OpKind::Add: infix(a, " + ", b); break;
    case OpKind::Sub: infix(a, " - ", b); break;
    case OpKind::Mul: infix(a, " * ", b); break;
    case OpKind::Div: infix(sa, " / ", sb); break;
    case OpKind::UDiv: infix(a, " / ", b); break;
    case OpKind::Mod: infix(sa, " % ", sb); break;
    case OpKind::UMod: infix(a, " % ", b); break;
    case OpKind::And: infix(a, " & ", b); break;
    case OpKind::Or: infix(a, " | ", b); break;
    case OpKind::Xor: infix(a, " ^ ", b); break;
    case OpKind::Shl: infix(a, " << ", b); break;
    case OpKind::Shr: infix(a, " >> ", b); break;
    case OpKind::Sar: infix(sa, " >>> ", b); break;
    case OpKind::Not: v << '~'; a(); break;
    case OpKind::Neg: v << '-'; a(); break;
    case OpKind::Inc: a(); v << " + 1'b1"; break;
    case OpKind::Dec: a(); v << " - 1'b1"; break;
    case OpKind::Eq: infix(a, " == ", b); break;
    case OpKind::Ne: infix(a, " != ", b); break;
    case OpKind::Lt: infix(sa, " < ", sb); break;
    case OpKind::Le: infix(sa, " <= ", sb); break;
    case OpKind::Gt: infix(sa, " > ", sb); break;
    case OpKind::Ge: infix(sa, " >= ", sb); break;
    case OpKind::ULt: infix(a, " < ", b); break;
    case OpKind::ULe: infix(a, " <= ", b); break;
    case OpKind::UGt: infix(a, " > ", b); break;
    case OpKind::UGe: infix(a, " >= ", b); break;
    case OpKind::Select:
      operand(2);
      v << " ? ";
      infix(a, " : ", b);
      break;
    default: a(); break;
  }
}

}  // namespace

std::string emitVerilog(const RtlDesign& d) {
  obs::TraceSpan span("rtl.verilog");
  for (const CtrlState& st : d.ctrl.states)
    for (const FuAction& fa : st.fuActions)
      MPHLS_CHECK(fa.cycles <= 1,
                  "Verilog emission supports unit-latency designs only");
  std::string text;
  Writer v(text);
  const Controller& ctrl = d.ctrl;
  const int stateBits = bitsForStates(ctrl.numStates());

  v << "// Generated by mphls — high-level synthesis of '" << d.fn.name()
    << "'\n";
  v << "// Datapath: " << d.regs.numRegs << " registers, "
    << d.binding.numFus() << " functional units, " << d.ic.mux2to1Count
    << " 2:1-mux equivalents. Controller: " << ctrl.numStates()
    << " states.\n";
  v << "module " << d.fn.name() << " (\n  input wire clk,\n"
    << "  input wire rst,\n";
  for (const auto& p : d.fn.ports()) {
    v << (p.isInput ? "  input wire " : "  output reg ");
    declWidth(v, p.width);
    v << (p.isInput ? "in_" : "out_") << p.name << ",\n";
  }
  v << "  output wire done\n);\n\n";

  // State register and codes.
  v << "  // controller state (binary encoded)\n";
  v << "  reg ";
  declWidth(v, stateBits);
  v << "state;\n";
  for (std::size_t s = 0; s < ctrl.numStates(); ++s)
    v << "  localparam S" << s << " = " << stateBits << "'d" << s << ";\n";
  v << "  assign done = (state == S" << ctrl.haltState.get() << ");\n\n";

  // Registers.
  v << "  // data-path registers\n";
  for (int r = 0; r < d.regs.numRegs; ++r) {
    v << "  reg ";
    declWidth(v, d.regs.regWidth[(std::size_t)r]);
    v << 'r' << r << ";\n";
  }
  v << '\n';

  // Functional-unit input muxes as per-state selected wires, plus outputs.
  // Controls are resolved per state, so we emit one combinational block
  // computing every active FU output.
  for (int f = 0; f < d.binding.numFus(); ++f) {
    const FuInstance& fu = d.binding.fus[(std::size_t)f];
    v << "  // unit fu" << f << ": " << d.lib.component(fu.comp).name
      << " (";
    for (OpKind k : fu.kinds) v << ' ' << opName(k);
    v << " )\n";
    v << "  reg ";
    declWidth(v, std::max(fu.width, 1));
    v << "fu" << f << "_out;\n";
  }
  v << "\n  always @* begin\n";
  for (int f = 0; f < d.binding.numFus(); ++f)
    v << "    fu" << f << "_out = 0;\n";
  v << "    case (state)\n";
  for (const CtrlState& st : ctrl.states) {
    if (st.fuActions.empty()) continue;
    v << "      S" << st.id.get() << ": begin\n";
    for (const FuAction& fa : st.fuActions) {
      v << "        fu" << fa.fu << "_out = ";
      opExpr(v, d, fa);
      v << ";\n";
    }
    v << "      end\n";
  }
  v << "      default: ;\n    endcase\n  end\n\n";

  // Sequential block: state transitions, register loads, port writes.
  v << "  always @(posedge clk) begin\n";
  v << "    if (rst) begin\n";
  v << "      state <= S" << ctrl.initial.get() << ";\n";
  for (const auto& p : d.fn.ports())
    if (!p.isInput) v << "      out_" << p.name << " <= 0;\n";
  v << "    end else begin\n";
  v << "      case (state)\n";
  for (const CtrlState& st : ctrl.states) {
    v << "        S" << st.id.get() << ": begin\n";
    for (const RegAction& ra : st.regActions) {
      v << "          r" << ra.reg << " <= ";
      sourceExpr(v, d,
                 d.ic.regInput[(std::size_t)ra.reg]
                     .sources[(std::size_t)ra.muxSel]);
      v << ";\n";
    }
    for (const PortAction& pa : st.portActions) {
      v << "          out_" << d.fn.ports()[(std::size_t)pa.port].name
        << " <= ";
      sourceExpr(v, d,
                 d.ic.outPortInput[(std::size_t)pa.port]
                     .sources[(std::size_t)pa.muxSel]);
      v << ";\n";
    }
    if (st.halt) {
      v << "          state <= S" << st.id.get() << ";\n";
    } else if (st.conditional) {
      v << "          state <= (";
      sourceExpr(v, d, st.cond);
      v << ") ? S" << st.nextTaken.get() << " : S" << st.nextNot.get()
        << ";\n";
    } else {
      v << "          state <= S" << st.next.get() << ";\n";
    }
    v << "        end\n";
  }
  v << "        default: state <= S" << ctrl.initial.get() << ";\n";
  v << "      endcase\n    end\n  end\n\nendmodule\n";
  return text;
}

}  // namespace mphls
