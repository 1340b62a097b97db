// Corrupted netlist: combinational cycles in two case arms (p/q in arms
// A and C, m/n in arm B), one unconditional cycle (u/v) and one
// self-loop (s). Pins the order and context labels of the loop report.
module comb_loops_multi(
  input wire clk,
  input wire [1:0] sel,
  input wire [7:0] x,
  output wire [7:0] y
);
  localparam A = 2'd0;
  localparam B = 2'd1;
  localparam C = 2'd2;
  wire [7:0] u;
  wire [7:0] v;
  wire [7:0] s;
  reg [7:0] p;
  reg [7:0] q;
  reg [7:0] m;
  reg [7:0] n;
  assign u = v + x;
  assign v = u;
  assign s = s ^ x;
  always @* begin
    p = x;
    q = x;
    m = x;
    n = x;
    case (sel)
      A: begin
        p = q + x;
        q = p;
      end
      B: begin
        m = n;
        n = m + u;
      end
      C: begin
        q = p;
        p = q;
      end
      default: ;
    endcase
  end
  assign y = u + s + p + q + m + n;
endmodule
