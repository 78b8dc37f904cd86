//! The paper's explanatory code snippets (§3.2–§3.4), as runnable designs.
//!
//! The artifact "includes a simplified code snippet for each bug for
//! explanation purposes"; this module carries one executable snippet per
//! subclass — including the three subclasses (Use-Without-Valid, API
//! Misuse, Erroneous Expression) that have no Table 2 testbed entry — each
//! paired with a demonstration that exhibits the symptom and, where the
//! paper gives one, the fix.

use crate::{simulator, Subclass};
use hwdbg_obs::StageTimer;
use hwdbg_sim::{SimError, Simulator};

/// A runnable snippet: the buggy code from the paper plus its fix.
#[derive(Debug, Clone)]
pub struct Snippet {
    /// The subclass it illustrates.
    pub subclass: Subclass,
    /// Section of the paper the snippet comes from.
    pub section: &'static str,
    /// Buggy Verilog.
    pub buggy: &'static str,
    /// Fixed Verilog (same module name and ports).
    pub fixed: &'static str,
}

/// All thirteen subclass snippets.
pub fn all() -> Vec<Snippet> {
    use Subclass::*;
    vec![
        Snippet {
            subclass: BufferOverflow,
            section: "3.2.1",
            // mybuf[offset] <= value with offset >= N.
            buggy: "module snip(input clk, input [3:0] offset, input value, output [9:0] view);
                reg mybuf [0:9];
                assign view = {mybuf[9], mybuf[8], mybuf[7], mybuf[6], mybuf[5],
                               mybuf[4], mybuf[3], mybuf[2], mybuf[1], mybuf[0]};
                always @(posedge clk) mybuf[offset] <= value;
            endmodule",
            fixed: "module snip(input clk, input [3:0] offset, input value, output [15:0] view);
                reg mybuf [0:15];
                assign view = {mybuf[15], mybuf[14], mybuf[13], mybuf[12], mybuf[11],
                               mybuf[10], mybuf[9], mybuf[8], mybuf[7], mybuf[6],
                               mybuf[5], mybuf[4], mybuf[3], mybuf[2], mybuf[1], mybuf[0]};
                always @(posedge clk) mybuf[offset] <= value;
            endmodule",
        },
        Snippet {
            subclass: BitTruncation,
            section: "3.2.2",
            // left <= 42'(right) >> 6 — bits [47:42] truncated.
            buggy: "module snip(input clk, input [63:0] right, output reg [41:0] left);
                always @(posedge clk) left <= 42'(right) >> 6;
            endmodule",
            fixed: "module snip(input clk, input [63:0] right, output reg [41:0] left);
                always @(posedge clk) left <= 42'(right >> 6);
            endmodule",
        },
        Snippet {
            subclass: Misindexing,
            section: "3.2.3",
            // IEEE-754: fraction is [22:0], not [23:0].
            buggy: "module snip(input [31:0] f, output [23:0] frac, output [7:0] expo);
                assign frac = f[23:0];
                assign expo = f[30:23];
            endmodule",
            fixed: "module snip(input [31:0] f, output [23:0] frac, output [7:0] expo);
                assign frac = {1'b0, f[22:0]};
                assign expo = f[30:23];
            endmodule",
        },
        Snippet {
            subclass: EndiannessMismatch,
            section: "3.2.4",
            buggy: "module snip(input clk, input [7:0] least_significant_byte,
                               input [7:0] most_significant_byte, output reg [15:0] data);
                always @(posedge clk) begin
                    data[7:0] <= least_significant_byte;
                    data[15:8] <= most_significant_byte;
                end
            endmodule",
            fixed: "module snip(input clk, input [7:0] least_significant_byte,
                               input [7:0] most_significant_byte, output reg [15:0] data);
                always @(posedge clk) begin
                    data[7:0] <= most_significant_byte;
                    data[15:8] <= least_significant_byte;
                end
            endmodule",
        },
        Snippet {
            subclass: FailureToUpdate,
            section: "3.2.5",
            buggy: "module snip(input clk, input reset, input input_valid, input output_ready,
                               output reg [7:0] input_counter, output reg [7:0] output_counter);
                always @(posedge clk) begin
                    if (input_valid) input_counter <= input_counter + 8'd1;
                    if (output_ready) output_counter <= output_counter + 8'd1;
                    if (reset) input_counter <= 8'd0;
                end
            endmodule",
            fixed: "module snip(input clk, input reset, input input_valid, input output_ready,
                               output reg [7:0] input_counter, output reg [7:0] output_counter);
                always @(posedge clk) begin
                    if (input_valid) input_counter <= input_counter + 8'd1;
                    if (output_ready) output_counter <= output_counter + 8'd1;
                    if (reset) begin
                        input_counter <= 8'd0;
                        output_counter <= 8'd0;
                    end
                end
            endmodule",
        },
        Snippet {
            subclass: Deadlock,
            section: "3.3.1",
            // if (a) b <= 1; if (b) a <= 1; if (a) out <= result;
            buggy: "module snip(input clk, input [7:0] result, output reg [7:0] out);
                reg a;
                reg b;
                always @(posedge clk) begin
                    if (a) b <= 1'b1;
                    if (b) a <= 1'b1;
                    if (a) out <= result;
                end
            endmodule",
            fixed: "module snip(input clk, input [7:0] result, output reg [7:0] out);
                reg a;
                reg b;
                reg seeded;
                always @(posedge clk) begin
                    if (!seeded) begin
                        a <= 1'b1;
                        seeded <= 1'b1;
                    end
                    if (a) b <= 1'b1;
                    if (b) a <= 1'b1;
                    if (a) out <= result;
                end
            endmodule",
        },
        Snippet {
            subclass: ProducerConsumerMismatch,
            section: "3.3.2",
            buggy: "module snip(input clk, input [7:0] x, input x_valid,
                               input [7:0] y, input y_valid, output reg [7:0] out,
                               output reg out_valid);
                always @(posedge clk) begin
                    out_valid <= x_valid || y_valid;
                    if (x_valid) out <= x;
                    else if (y_valid) out <= y;
                end
            endmodule",
            fixed: "module snip(input clk, input [7:0] x, input x_valid,
                               input [7:0] y, input y_valid, output reg [7:0] out,
                               output reg out_valid);
                reg [7:0] pend;
                reg pend_v;
                always @(posedge clk) begin
                    out_valid <= 1'b0;
                    if (x_valid) begin
                        out <= x;
                        out_valid <= 1'b1;
                        if (y_valid) begin
                            pend <= y;
                            pend_v <= 1'b1;
                        end
                    end else if (y_valid) begin
                        out <= y;
                        out_valid <= 1'b1;
                    end else if (pend_v) begin
                        out <= pend;
                        out_valid <= 1'b1;
                        pend_v <= 1'b0;
                    end
                end
            endmodule",
        },
        Snippet {
            subclass: SignalAsynchrony,
            section: "3.3.3",
            buggy: "module snip(input clk, input request, input [7:0] input_data,
                               output reg [7:0] final_response, output reg final_response_valid);
                reg [7:0] buffered_response;
                always @(posedge clk) begin
                    if (request) buffered_response <= input_data + 8'd1;
                    final_response <= buffered_response;
                    if (request) final_response_valid <= 1'b1;
                    else final_response_valid <= 1'b0;
                end
            endmodule",
            fixed: "module snip(input clk, input request, input [7:0] input_data,
                               output reg [7:0] final_response, output reg final_response_valid);
                reg [7:0] buffered_response;
                reg delayed_response_valid;
                always @(posedge clk) begin
                    if (request) buffered_response <= input_data + 8'd1;
                    final_response <= buffered_response;
                    if (request) delayed_response_valid <= 1'b1;
                    else delayed_response_valid <= 1'b0;
                    final_response_valid <= delayed_response_valid;
                end
            endmodule",
        },
        Snippet {
            subclass: UseWithoutValid,
            section: "3.3.4",
            buggy: "module snip(input clk, input [7:0] data, input data_valid,
                               output reg [15:0] sum);
                always @(posedge clk) sum <= sum + {8'd0, data};
            endmodule",
            fixed: "module snip(input clk, input [7:0] data, input data_valid,
                               output reg [15:0] sum);
                always @(posedge clk) begin
                    if (data_valid) sum <= sum + {8'd0, data};
                    else sum <= sum;
                end
            endmodule",
        },
        Snippet {
            subclass: ProtocolViolation,
            section: "3.4.1",
            // A ready/valid source that drops valid before the handshake.
            buggy: "module snip(input clk, input start, input ready,
                               output reg valid, output reg [7:0] word);
                always @(posedge clk) begin
                    if (start) begin
                        valid <= 1'b1;
                        word <= 8'hA5;
                    end else begin
                        valid <= 1'b0;
                    end
                end
            endmodule",
            fixed: "module snip(input clk, input start, input ready,
                               output reg valid, output reg [7:0] word);
                always @(posedge clk) begin
                    if (start) begin
                        valid <= 1'b1;
                        word <= 8'hA5;
                    end else if (valid && ready) begin
                        valid <= 1'b0;
                    end
                end
            endmodule",
        },
        Snippet {
            subclass: ApiMisuse,
            section: "3.4.2",
            // greater_than computes x > y; connections swapped.
            buggy: "module greater_than(input [7:0] x, input [7:0] y, output result);
                assign result = x > y;
            endmodule
            module snip(input [7:0] a, input [7:0] b, output out);
                greater_than a_greater_than_b (.x(b), .y(a), .result(out));
            endmodule",
            fixed: "module greater_than(input [7:0] x, input [7:0] y, output result);
                assign result = x > y;
            endmodule
            module snip(input [7:0] a, input [7:0] b, output out);
                greater_than a_greater_than_b (.x(a), .y(b), .result(out));
            endmodule",
        },
        Snippet {
            subclass: IncompleteImplementation,
            section: "3.4.3",
            // A divider stub that never handled the divide-by-zero case.
            buggy: "module snip(input clk, input [7:0] num, input [7:0] den,
                               output reg [7:0] quo, output reg err);
                always @(posedge clk) begin
                    quo <= num / den;
                    err <= 1'b0;
                end
            endmodule",
            fixed: "module snip(input clk, input [7:0] num, input [7:0] den,
                               output reg [7:0] quo, output reg err);
                always @(posedge clk) begin
                    if (den == 8'd0) begin
                        quo <= 8'hFF;
                        err <= 1'b1;
                    end else begin
                        quo <= num / den;
                        err <= 1'b0;
                    end
                end
            endmodule",
        },
        Snippet {
            subclass: ErroneousExpression,
            section: "3.4.4",
            // Control-flow expression off by a comparison direction.
            buggy: "module snip(input clk, input [7:0] level, output reg alarm);
                always @(posedge clk) begin
                    if (level < 8'd200) alarm <= 1'b1;
                    else alarm <= 1'b0;
                end
            endmodule",
            fixed: "module snip(input clk, input [7:0] level, output reg alarm);
                always @(posedge clk) begin
                    if (level > 8'd200) alarm <= 1'b1;
                    else alarm <= 1'b0;
                end
            endmodule",
        },
    ]
}

/// Builds a simulator for a snippet source.
///
/// # Errors
///
/// Propagates parse/elaboration/simulation construction errors.
pub fn snippet_sim(src: &str) -> Result<Simulator, Box<dyn std::error::Error>> {
    let design = crate::target::elaborate_source(src, None, &mut StageTimer::new())?;
    Ok(simulator(design)?)
}

/// Convenience used by the demonstration tests: steps `clk` once with the
/// given pokes applied.
pub fn step_with(sim: &mut Simulator, pokes: &[(&str, u64)]) -> Result<(), SimError> {
    for (name, v) in pokes {
        sim.poke_u64(name, *v)?;
    }
    sim.step("clk")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_subclass_has_a_snippet() {
        let snippets = all();
        assert_eq!(snippets.len(), 13);
        let mut subs: Vec<_> = snippets.iter().map(|s| s.subclass).collect();
        subs.sort();
        subs.dedup();
        assert_eq!(subs.len(), 13);
    }

    #[test]
    fn all_snippets_elaborate_buggy_and_fixed() {
        for s in all() {
            snippet_sim(s.buggy).unwrap_or_else(|e| panic!("{:?} buggy: {e}", s.subclass));
            snippet_sim(s.fixed).unwrap_or_else(|e| panic!("{:?} fixed: {e}", s.subclass));
        }
    }

    fn find(sub: Subclass) -> Snippet {
        all().into_iter().find(|s| s.subclass == sub).unwrap()
    }

    #[test]
    fn buffer_overflow_snippet_drops_high_offsets() {
        let s = find(Subclass::BufferOverflow);
        let mut sim = snippet_sim(s.buggy).unwrap();
        step_with(&mut sim, &[("offset", 12), ("value", 1)]).unwrap();
        assert_eq!(sim.peek("view").unwrap().to_u64(), 0, "write dropped");
        let mut sim = snippet_sim(s.fixed).unwrap();
        step_with(&mut sim, &[("offset", 12), ("value", 1)]).unwrap();
        assert_eq!(sim.peek("view").unwrap().to_u64(), 1 << 12);
    }

    #[test]
    fn truncation_snippet_loses_bits_47_to_42() {
        let right = 0x0000_FC00_0000_0040u64; // bits 47:42 set plus bit 6
        let s = find(Subclass::BitTruncation);
        let mut sim = snippet_sim(s.buggy).unwrap();
        sim.poke("right", hwdbg_bits::Bits::from_u64(64, right)).unwrap();
        sim.step("clk").unwrap();
        let buggy = sim.peek("left").unwrap().to_u64();
        let mut sim = snippet_sim(s.fixed).unwrap();
        sim.poke("right", hwdbg_bits::Bits::from_u64(64, right)).unwrap();
        sim.step("clk").unwrap();
        let fixed = sim.peek("left").unwrap().to_u64();
        assert_ne!(buggy, fixed);
        assert_eq!(fixed, (right & ((1 << 48) - 1)) >> 6);
    }

    #[test]
    fn endianness_snippet_swaps_bytes() {
        let s = find(Subclass::EndiannessMismatch);
        let pokes = [("least_significant_byte", 0x34u64), ("most_significant_byte", 0x12)];
        let mut sim = snippet_sim(s.buggy).unwrap();
        step_with(&mut sim, &pokes).unwrap();
        assert_eq!(sim.peek("data").unwrap().to_u64(), 0x1234);
        // The consumer expected big-endian layout {lsb, msb}:
        let mut sim = snippet_sim(s.fixed).unwrap();
        step_with(&mut sim, &pokes).unwrap();
        assert_eq!(sim.peek("data").unwrap().to_u64(), 0x3412);
    }

    #[test]
    fn deadlock_snippet_never_progresses() {
        let s = find(Subclass::Deadlock);
        let mut sim = snippet_sim(s.buggy).unwrap();
        sim.poke_u64("result", 42).unwrap();
        sim.run("clk", 50).unwrap();
        assert_eq!(sim.peek("out").unwrap().to_u64(), 0, "a/b never fire");
        let mut sim = snippet_sim(s.fixed).unwrap();
        sim.poke_u64("result", 42).unwrap();
        sim.run("clk", 5).unwrap();
        assert_eq!(sim.peek("out").unwrap().to_u64(), 42);
    }

    #[test]
    fn producer_consumer_snippet_loses_y() {
        let s = find(Subclass::ProducerConsumerMismatch);
        let mut sim = snippet_sim(s.buggy).unwrap();
        step_with(&mut sim, &[("x", 1), ("x_valid", 1), ("y", 2), ("y_valid", 1)]).unwrap();
        step_with(&mut sim, &[("x_valid", 0), ("y_valid", 0)]).unwrap();
        sim.step("clk").unwrap();
        assert_eq!(sim.peek("out").unwrap().to_u64(), 1, "y was lost");
        // Fixed: y drains from the pending register one cycle later.
        let mut sim = snippet_sim(s.fixed).unwrap();
        step_with(&mut sim, &[("x", 1), ("x_valid", 1), ("y", 2), ("y_valid", 1)]).unwrap();
        assert_eq!(sim.peek("out").unwrap().to_u64(), 1);
        step_with(&mut sim, &[("x_valid", 0), ("y_valid", 0)]).unwrap();
        assert_eq!(sim.peek("out").unwrap().to_u64(), 2, "pending y delivered");
    }

    #[test]
    fn use_without_valid_snippet_accumulates_garbage() {
        let s = find(Subclass::UseWithoutValid);
        let mut sim = snippet_sim(s.buggy).unwrap();
        step_with(&mut sim, &[("data", 5), ("data_valid", 1)]).unwrap();
        step_with(&mut sim, &[("data", 9), ("data_valid", 0)]).unwrap(); // stale bus noise
        assert_eq!(sim.peek("sum").unwrap().to_u64(), 14, "invalid data summed");
        let mut sim = snippet_sim(s.fixed).unwrap();
        step_with(&mut sim, &[("data", 5), ("data_valid", 1)]).unwrap();
        step_with(&mut sim, &[("data", 9), ("data_valid", 0)]).unwrap();
        assert_eq!(sim.peek("sum").unwrap().to_u64(), 5);
    }

    #[test]
    fn api_misuse_snippet_computes_the_wrong_comparison() {
        let s = find(Subclass::ApiMisuse);
        let mut sim = snippet_sim(s.buggy).unwrap();
        sim.poke_u64("a", 9).unwrap();
        sim.poke_u64("b", 3).unwrap();
        sim.settle().unwrap();
        assert!(!sim.peek("out").unwrap().to_bool(), "computes b > a");
        let mut sim = snippet_sim(s.fixed).unwrap();
        sim.poke_u64("a", 9).unwrap();
        sim.poke_u64("b", 3).unwrap();
        sim.settle().unwrap();
        assert!(sim.peek("out").unwrap().to_bool());
    }

    #[test]
    fn erroneous_expression_snippet_inverts_the_alarm() {
        let s = find(Subclass::ErroneousExpression);
        let mut sim = snippet_sim(s.buggy).unwrap();
        step_with(&mut sim, &[("level", 250)]).unwrap();
        assert!(!sim.peek("alarm").unwrap().to_bool(), "alarm missed");
        let mut sim = snippet_sim(s.fixed).unwrap();
        step_with(&mut sim, &[("level", 250)]).unwrap();
        assert!(sim.peek("alarm").unwrap().to_bool());
    }

    #[test]
    fn incomplete_implementation_snippet_misses_div_by_zero() {
        let s = find(Subclass::IncompleteImplementation);
        let mut sim = snippet_sim(s.buggy).unwrap();
        step_with(&mut sim, &[("num", 10), ("den", 0)]).unwrap();
        assert!(!sim.peek("err").unwrap().to_bool(), "corner case unhandled");
        let mut sim = snippet_sim(s.fixed).unwrap();
        step_with(&mut sim, &[("num", 10), ("den", 0)]).unwrap();
        assert!(sim.peek("err").unwrap().to_bool());
        assert_eq!(sim.peek("quo").unwrap().to_u64(), 0xFF);
    }
}
