#include "rtl/verilog.h"

#include <set>
#include <sstream>

#include "common/bitutil.h"
#include "obs/trace.h"

namespace mphls {

namespace {

std::string w(int width) {
  std::ostringstream oss;
  if (width > 1) oss << "[" << width - 1 << ":0] ";
  return oss.str();
}

/// Verilog expression applying a wiring transform chain to `expr`.
std::string xformExpr(std::string expr, int width,
                      const std::vector<WireXform>& chain) {
  for (const WireXform& x : chain) {
    std::ostringstream oss;
    switch (x.kind) {
      case OpKind::ShlConst:
        oss << "(" << x.width << "'d0 | ((" << expr << ") << " << x.imm
            << "))";
        break;
      case OpKind::ShrConst:
        oss << "((" << expr << ") >> " << x.imm << ")";
        break;
      case OpKind::SarConst:
        oss << "($signed({{" << std::max(x.width - width, 0) << "{1'b0}}, "
            << expr << "}) >>> " << x.imm << ")";
        break;
      case OpKind::Trunc:
        if (x.width >= 63) {
          oss << "(" << expr << ")";
        } else {
          oss << "((" << expr << ") & " << x.width << "'h" << std::hex
              << truncBits(~0ULL, x.width) << std::dec << ")";
        }
        break;
      case OpKind::ZExt:
        // Width narrowing can shrink an extension's result below its source
        // width; extension then truncates, i.e. keeps the low result bits.
        if (x.width <= width) {
          oss << "((" << expr << ") & " << x.width << "'h" << std::hex
              << truncBits(~0ULL, x.width) << std::dec << ")";
        } else {
          oss << "{" << (x.width - width) << "'d0, " << expr << "}";
        }
        break;
      case OpKind::SExt:
        if (x.width <= width) {
          oss << "((" << expr << ") & " << x.width << "'h" << std::hex
              << truncBits(~0ULL, x.width) << std::dec << ")";
        } else {
          oss << "{{" << (x.width - width) << "{(" << expr << ")[" << width - 1
              << "]}}, " << expr << "}";
        }
        break;
      default:
        oss << expr;
        break;
    }
    expr = oss.str();
    width = x.width;
  }
  return expr;
}

std::string sourceExpr(const RtlDesign& d, const Source& s) {
  std::ostringstream root;
  switch (s.kind) {
    case Source::Kind::Reg: root << "r" << s.id; break;
    case Source::Kind::Port:
      root << "in_" << d.fn.ports()[(std::size_t)s.id].name;
      break;
    case Source::Kind::Const:
      root << s.rootWidth << "'d" << truncBits((std::uint64_t)s.imm,
                                               s.rootWidth);
      break;
    case Source::Kind::Fu: root << "fu" << s.id << "_out"; break;
  }
  return xformExpr(root.str(), s.rootWidth, s.xform);
}

std::string opExpr(OpKind k, const std::string& a, const std::string& b,
                   const std::string& c, int aw, int bw) {
  std::ostringstream oss;
  auto sa = [&] { return "$signed(" + a + ")"; };
  auto sb = [&] { return "$signed(" + b + ")"; };
  switch (k) {
    case OpKind::Add: oss << a << " + " << b; break;
    case OpKind::Sub: oss << a << " - " << b; break;
    case OpKind::Mul: oss << a << " * " << b; break;
    case OpKind::Div: oss << sa() << " / " << sb(); break;
    case OpKind::UDiv: oss << a << " / " << b; break;
    case OpKind::Mod: oss << sa() << " % " << sb(); break;
    case OpKind::UMod: oss << a << " % " << b; break;
    case OpKind::And: oss << a << " & " << b; break;
    case OpKind::Or: oss << a << " | " << b; break;
    case OpKind::Xor: oss << a << " ^ " << b; break;
    case OpKind::Shl: oss << a << " << " << b; break;
    case OpKind::Shr: oss << a << " >> " << b; break;
    case OpKind::Sar: oss << sa() << " >>> " << b; break;
    case OpKind::Not: oss << "~" << a; break;
    case OpKind::Neg: oss << "-" << a; break;
    case OpKind::Inc: oss << a << " + 1'b1"; break;
    case OpKind::Dec: oss << a << " - 1'b1"; break;
    case OpKind::Eq: oss << a << " == " << b; break;
    case OpKind::Ne: oss << a << " != " << b; break;
    case OpKind::Lt: oss << sa() << " < " << sb(); break;
    case OpKind::Le: oss << sa() << " <= " << sb(); break;
    case OpKind::Gt: oss << sa() << " > " << sb(); break;
    case OpKind::Ge: oss << sa() << " >= " << sb(); break;
    case OpKind::ULt: oss << a << " < " << b; break;
    case OpKind::ULe: oss << a << " <= " << b; break;
    case OpKind::UGt: oss << a << " > " << b; break;
    case OpKind::UGe: oss << a << " >= " << b; break;
    case OpKind::Select: oss << c << " ? " << a << " : " << b; break;
    default: oss << a; break;
  }
  (void)aw;
  (void)bw;
  return oss.str();
}

}  // namespace

std::string emitVerilog(const RtlDesign& d) {
  obs::TraceSpan span("rtl.verilog");
  for (const CtrlState& st : d.ctrl.states)
    for (const FuAction& fa : st.fuActions)
      MPHLS_CHECK(fa.cycles <= 1,
                  "Verilog emission supports unit-latency designs only");
  std::ostringstream v;
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
    if (p.isInput)
      v << "  input wire " << w(p.width) << "in_" << p.name << ",\n";
    else
      v << "  output reg " << w(p.width) << "out_" << p.name << ",\n";
  }
  v << "  output wire done\n);\n\n";

  // State register and codes.
  v << "  // controller state (binary encoded)\n";
  v << "  reg " << w(stateBits) << "state;\n";
  for (std::size_t s = 0; s < ctrl.numStates(); ++s)
    v << "  localparam S" << s << " = " << stateBits << "'d" << s << ";\n";
  v << "  assign done = (state == S" << ctrl.haltState.get() << ");\n\n";

  // Registers.
  v << "  // data-path registers\n";
  for (int r = 0; r < d.regs.numRegs; ++r)
    v << "  reg " << w(d.regs.regWidth[(std::size_t)r]) << "r" << r << ";\n";
  v << "\n";

  // Functional-unit input muxes as per-state selected wires, plus outputs.
  // Controls are resolved per state, so we emit one combinational block
  // computing every active FU output.
  for (int f = 0; f < d.binding.numFus(); ++f) {
    const FuInstance& fu = d.binding.fus[(std::size_t)f];
    v << "  // unit fu" << f << ": " << d.lib.component(fu.comp).name
      << " (";
    for (OpKind k : fu.kinds) v << " " << opName(k);
    v << " )\n";
    v << "  reg " << w(std::max(fu.width, 1)) << "fu" << f << "_out;\n";
  }
  v << "\n  always @* begin\n";
  for (int f = 0; f < d.binding.numFus(); ++f)
    v << "    fu" << f << "_out = 0;\n";
  v << "    case (state)\n";
  for (const CtrlState& st : ctrl.states) {
    if (st.fuActions.empty()) continue;
    v << "      S" << st.id.get() << ": begin\n";
    for (const FuAction& fa : st.fuActions) {
      std::string a = "0", b = "0", c = "0";
      int aw = 1, bw = 1;
      auto leg = [&](int p) -> std::string {
        const MuxSpec& mux = d.ic.fuInput[(std::size_t)fa.fu][(std::size_t)p];
        const Source& s = mux.sources[(std::size_t)fa.muxSel[p]];
        // Sequential append: GCC 12 -Wrestrict -O3 false positive on the
        // temporary chain (same story as obs/vcd.cpp).
        std::string e = "(";
        e += sourceExpr(d, s);
        e += ")";
        return e;
      };
      if (fa.kind == OpKind::Select) {
        a = leg(0);
        b = leg(1);
        c = leg(2);
      } else {
        int arity = opArity(fa.kind);
        if (arity >= 1) {
          a = leg(0);
          aw = d.ic.fuInput[(std::size_t)fa.fu][0]
                   .sources[(std::size_t)fa.muxSel[0]]
                   .finalWidth();
        }
        if (arity >= 2) {
          b = leg(1);
          bw = d.ic.fuInput[(std::size_t)fa.fu][1]
                   .sources[(std::size_t)fa.muxSel[1]]
                   .finalWidth();
        }
      }
      v << "        fu" << fa.fu << "_out = " << opExpr(fa.kind, a, b, c, aw, bw)
        << ";\n";
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
      const Source& s = d.ic.regInput[(std::size_t)ra.reg]
                            .sources[(std::size_t)ra.muxSel];
      v << "          r" << ra.reg << " <= " << sourceExpr(d, s) << ";\n";
    }
    for (const PortAction& pa : st.portActions) {
      const Source& s = d.ic.outPortInput[(std::size_t)pa.port]
                            .sources[(std::size_t)pa.muxSel];
      v << "          out_" << d.fn.ports()[(std::size_t)pa.port].name
        << " <= " << sourceExpr(d, s) << ";\n";
    }
    if (st.halt) {
      v << "          state <= S" << st.id.get() << ";\n";
    } else if (st.conditional) {
      v << "          state <= (" << sourceExpr(d, st.cond)
        << ") ? S" << st.nextTaken.get() << " : S" << st.nextNot.get()
        << ";\n";
    } else {
      v << "          state <= S" << st.next.get() << ";\n";
    }
    v << "        end\n";
  }
  v << "        default: state <= S" << ctrl.initial.get() << ";\n";
  v << "      endcase\n    end\n  end\n\nendmodule\n";
  return v.str();
}

}  // namespace mphls
