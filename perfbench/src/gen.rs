//! Seeded generator of large designs for the `large_design` workload.
//!
//! A design is a chain of `clusters` cluster instances under `lg_top`;
//! each cluster chains four leaf instances, one of each kind:
//!
//! - `a`: a four-state FSM filling and mixing a 10-entry memory, 32-bit;
//!   its fill index runs to 11, the planted `L0501` (memory index range);
//! - `b`: a 128-bit shift-and-mix register and a 64-bit sum truncated
//!   into a 32-bit register, the planted `L0202` (width truncation);
//! - `c`: a 64-bit accumulator and a register nothing reads, the planted
//!   `L0402` (never read);
//! - `d`: a 32-bit hash with a `$display` every 128 cycles.
//!
//! Every module comes in `variants` copies with their own constants. The
//! seed picks the constants and which cluster variant each top-level
//! instance uses, but never the structure: every seed yields the same
//! modules, instances, widths and planted patterns, in the same order, so
//! the work per design does not depend on it. (Shuffling the kinds inside
//! a cluster moved `assign-style`'s cost by about 15% from seed to seed.)
//! Only the supported subset is used (no generate blocks, no functions,
//! named port connections only).

use crate::Rng;
use std::fmt::Write;

/// Size of a generated design.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Cluster instances under the top (four leaves each).
    pub clusters: usize,
    /// Distinct copies of every module.
    pub variants: usize,
}

/// One generated design.
pub struct Generated {
    pub source: String,
    pub top: &'static str,
    /// Planted lint codes with the instance-name suffix of the register
    /// each must name (one per leaf of that kind).
    pub planted: Vec<(&'static str, String)>,
}

const KINDS: [char; 4] = ['a', 'b', 'c', 'd'];

fn leaf(out: &mut String, kind: char, v: usize, rng: &mut Rng) {
    let k1 = rng.next_u64() as u32 | 1;
    let k2 = (rng.below(250) + 3) as u32;
    match kind {
        'a' => {
            let _ = write!(
                out,
                "module lg_a{v} (input clk, input [31:0] din, output [31:0] dout);
  localparam S_IDLE = 2'd0;
  localparam S_FILL = 2'd1;
  localparam S_MIX = 2'd2;
  localparam S_EMIT = 2'd3;
  reg [1:0] state;
  reg [3:0] idx;
  reg [31:0] acc;
  reg [31:0] mem [0:9];
  reg [31:0] out_r;
  assign dout = out_r;
  always @(posedge clk) begin
    case (state)
      S_IDLE: begin
        idx <= 4'd0;
        state <= S_FILL;
      end
      S_FILL: begin
        mem[idx] <= din ^ 32'h{k1:08x};
        if (idx == 4'd11) begin
          idx <= 4'd0;
          state <= S_MIX;
        end else begin
          idx <= idx + 4'd1;
        end
      end
      S_MIX: begin
        acc <= acc + mem[idx] * 32'd{k2};
        if (idx == 4'd9) state <= S_EMIT;
        else idx <= idx + 4'd1;
      end
      default: begin
        out_r <= acc ^ din;
        state <= S_IDLE;
      end
    endcase
  end
endmodule
"
            );
        }
        'b' => {
            let salt = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
            let shift = 3 + rng.below(5);
            let _ = write!(
                out,
                "module lg_b{v} (input clk, input [31:0] din, output [31:0] dout);
  reg [127:0] w;
  reg [63:0] lo;
  reg [31:0] tmp;
  always @(posedge clk) begin
    w <= {{w[95:0], din}} ^ (w >> {shift}) ^ 128'h{salt:032x};
    lo <= w[63:0] + {{din, din}};
    tmp <= lo ^ 64'd{k2};
  end
  assign dout = tmp ^ w[127:96];
endmodule
"
            );
        }
        'c' => {
            let _ = write!(
                out,
                "module lg_c{v} (input clk, input [31:0] din, output [31:0] dout);
  reg [63:0] cnt;
  reg [7:0] stash;
  reg [31:0] r;
  always @(posedge clk) begin
    cnt <= cnt + {{32'd0, din}} + 64'd{k2};
    stash <= din[7:0] ^ 8'd{k2};
    r <= cnt[63:32] ^ cnt[31:0] ^ 32'h{k1:08x};
  end
  assign dout = r;
endmodule
"
            );
        }
        _ => {
            let (s1, s2) = (1 + rng.below(7), 1 + rng.below(7));
            let phase = rng.below(128);
            let _ = write!(
                out,
                "module lg_d{v} (input clk, input [31:0] din, output [31:0] dout);
  reg [15:0] n;
  reg [31:0] h;
  always @(posedge clk) begin
    n <= n + 16'd1;
    h <= (h << {s1}) ^ (h >> {s2}) ^ din ^ 32'h{k1:08x};
    if (n[6:0] == 7'd{phase}) $display(\"lg_d{v}: n=%0d h=%h\", n, h);
  end
  assign dout = h;
endmodule
"
            );
        }
    }
}

/// Generates one design; the same `(seed, shape)` always yields the same
/// text.
pub fn generate(seed: u64, shape: Shape) -> Generated {
    let mut rng = Rng::new(seed);
    let mut src = String::new();
    let mut orders = Vec::with_capacity(shape.variants);
    for v in 0..shape.variants {
        for kind in KINDS {
            leaf(&mut src, kind, v, &mut rng);
        }
        let order = KINDS;
        let _ = writeln!(
            src,
            "module lg_cl{v} (input clk, input [31:0] din, output [31:0] dout);\n  \
             wire [31:0] x0;\n  wire [31:0] x1;\n  wire [31:0] x2;"
        );
        for (i, kind) in order.iter().enumerate() {
            let din = if i == 0 {
                "din".to_owned()
            } else {
                format!("x{}", i - 1)
            };
            let dout = if i == 3 {
                "dout".to_owned()
            } else {
                format!("x{i}")
            };
            let _ = writeln!(
                src,
                "  lg_{kind}{v} u{i} (.clk(clk), .din({din}), .dout({dout}));"
            );
        }
        src.push_str("endmodule\n");
        orders.push(order);
    }

    // Every cluster variant is used equally often, in a seeded order.
    let mut uses: Vec<usize> = (0..shape.clusters).map(|i| i % shape.variants).collect();
    rng.shuffle(&mut uses);
    let n = shape.clusters;
    src.push_str(
        "module lg_top (input clk, output [31:0] out, output [31:0] tap);\n  \
         reg [31:0] tick;\n  wire [31:0] c0;\n  \
         always @(posedge clk) tick <= tick + 32'd1;\n  \
         assign c0 = tick * 32'h9e3779b1;\n",
    );
    let mut planted = Vec::new();
    for (i, &v) in uses.iter().enumerate() {
        let _ = writeln!(
            src,
            "  wire [31:0] c{};\n  lg_cl{v} k{i} (.clk(clk), .din(c{i}), .dout(c{}));",
            i + 1,
            i + 1
        );
        for (slot, kind) in orders[v].iter().enumerate() {
            let (code, reg) = match kind {
                'a' => ("L0501", "mem"),
                'b' => ("L0202", "tmp"),
                'c' => ("L0402", "stash"),
                _ => continue,
            };
            planted.push((code, format!("k{i}__u{slot}__{reg}")));
        }
    }
    let _ = writeln!(
        src,
        "  assign out = c{n};\n  assign tap = c{} ^ c{};\nendmodule",
        n / 2,
        n / 4
    );
    Generated {
        source: src,
        top: "lg_top",
        planted,
    }
}

/// Whether a finding with `code` names the register `reg`, either in its
/// signal list or, for passes that report only a span, in its message.
pub fn fires(findings: &[hwdbg_diag::HwdbgError], code: &str, reg: &str) -> bool {
    let quoted = format!("`{reg}`");
    findings.iter().any(|f| {
        f.code.as_str() == code
            && (f.signals.iter().any(|s| s == reg) || f.message.contains(&quoted))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_dataflow::elaborate;
    use hwdbg_ip::StdIpLib;

    const SMALL: Shape = Shape {
        clusters: 8,
        variants: 2,
    };

    #[test]
    fn same_seed_same_text() {
        assert_eq!(generate(7, SMALL).source, generate(7, SMALL).source);
        assert_ne!(generate(7, SMALL).source, generate(8, SMALL).source);
    }

    #[test]
    fn size_does_not_depend_on_seed() {
        let a = generate(1, SMALL);
        let b = generate(2, SMALL);
        assert_eq!(a.planted.len(), b.planted.len());
        assert_eq!(a.source.lines().count(), b.source.lines().count());
    }

    #[test]
    fn parses_and_elaborates() {
        for seed in 0..4 {
            let g = generate(seed, SMALL);
            let file = hwdbg_rtl::parse(&g.source).expect("generated design parses");
            let design = elaborate(&file, g.top, &StdIpLib::new()).expect("and elaborates");
            assert_eq!(g.planted.len(), SMALL.clusters * 3);
            for (_, reg) in &g.planted {
                assert!(
                    design.signals.contains_key(reg),
                    "{reg} missing after flattening"
                );
            }
        }
    }

    #[test]
    fn every_planted_pattern_fires() {
        let g = generate(3, SMALL);
        let file = hwdbg_rtl::parse(&g.source).expect("parses");
        let design = elaborate(&file, g.top, &StdIpLib::new()).expect("elaborates");
        let findings = hwdbg_lint::run_default(&design);
        for (code, reg) in &g.planted {
            assert!(fires(&findings, code, reg), "{code} on {reg} did not fire");
        }
    }
}
