//! Emission of the compiled schedule and tables as Rust source.
//!
//! The paper's prototype tool emits C that a compiler links with the
//! application actions and a generic controller; here the moral
//! equivalent is a self-contained Rust module with `static` tables and a
//! `qual_const` lookup function mirroring `ConstraintTables`. The output
//! is deterministic and syntactically valid Rust (tested by shape; the
//! umbrella crate's integration tests compare its numbers against the
//! live tables).

use std::fmt::Write as _;

use crate::compile::ControlledApp;

/// Renders a generated-module header plus tables for `app`.
#[must_use]
pub fn generate_rust(app: &ControlledApp) -> String {
    let tables = app.tables();
    let n = tables.len();
    let nq = tables.quality_count();
    // Plain `//` comments and no inner attributes: the output must be
    // valid both as a standalone module file and `include!`d into a
    // wrapper module (the golden-file test compiles it that way).
    let mut out = String::new();
    let _ = writeln!(out, "// Generated by fgqos-tool for `{}`.", app.name());
    let _ = writeln!(out, "// {} actions, {} quality levels.", n, nq);
    let _ = writeln!(out);
    let _ = writeln!(out, "pub const N_ACTIONS: usize = {n};");
    let _ = writeln!(out, "pub const N_QUALITIES: usize = {nq};");
    let _ = writeln!(out);

    // Schedule.
    let _ = write!(out, "pub static SCHEDULE: [u32; {n}] = [");
    for (i, a) in tables.order().iter().enumerate() {
        if i % 16 == 0 {
            let _ = write!(out, "\n    ");
        }
        let _ = write!(out, "{}, ", a.index());
    }
    let _ = writeln!(out, "\n];");
    let _ = writeln!(out);

    // Average budgets per quality, exact in i128 (i128::MIN/MAX encode
    // ±infinity, as in `Slack`): a budget may exceed `i64::MAX`.
    let _ = writeln!(
        out,
        "/// `AV_BUDGET[q][i]`: max elapsed time admitting the all-q suffix at i."
    );
    let _ = write!(out, "pub static AV_BUDGET: [[i128; {}]; {nq}] = [", n + 1);
    for qi in 0..nq {
        let _ = write!(out, "\n    [");
        for i in 0..=n {
            if i % 8 == 0 {
                let _ = write!(out, "\n        ");
            }
            let _ = write!(out, "{}, ", tables.av_budget_at(qi, i).get());
        }
        let _ = write!(out, "\n    ],");
    }
    let _ = writeln!(out, "\n];");
    let _ = writeln!(out);

    // Worst-case fallback budgets (single table at q_min).
    let _ = writeln!(
        out,
        "/// `WCMIN_BUDGET[i]`: max elapsed time admitting the all-qmin worst-case suffix."
    );
    let _ = write!(out, "pub static WCMIN_BUDGET: [i128; {}] = [", n + 1);
    for i in 0..=n {
        if i % 8 == 0 {
            let _ = write!(out, "\n    ");
        }
        let _ = write!(out, "{}, ", tables.wcmin_budget_at(i).get());
    }
    let _ = writeln!(out, "\n];");
    let _ = writeln!(out);

    // Per-position worst case and deadline of the next action.
    let _ = write!(out, "pub static CWC_NEXT: [[u64; {n}]; {nq}] = [");
    for qi in 0..nq {
        let _ = write!(out, "\n    [");
        for i in 0..n {
            if i % 8 == 0 {
                let _ = write!(out, "\n        ");
            }
            let _ = write!(out, "{}, ", tables.worst_at(qi, i).get());
        }
        let _ = write!(out, "\n    ],");
    }
    let _ = writeln!(out, "\n];");
    let _ = write!(out, "pub static D_NEXT: [[u64; {n}]; {nq}] = [");
    for qi in 0..nq {
        let _ = write!(out, "\n    [");
        for i in 0..n {
            if i % 8 == 0 {
                let _ = write!(out, "\n        ");
            }
            let _ = write!(out, "{}, ", tables.deadline_at(qi, i).get());
        }
        let _ = write!(out, "\n    ],");
    }
    let _ = writeln!(out, "\n];");
    let _ = writeln!(out);

    // The generic constraint evaluation, mirroring ConstraintTables:
    // slacks are i128 and `u64::MAX` is the infinite cycle count, so
    // every comparison is exact for any cycle count.
    out.push_str(
        r#"/// `Qual_Const = Qual_Constav ∧ Qual_Constwc` at position `i`, elapsed `t`.
pub fn qual_const(qi: usize, i: usize, t: u64) -> bool {
    let av_ok = admits(AV_BUDGET[qi][i], t);
    let wc_ok = if i == N_ACTIONS {
        true
    } else {
        let cwc = CWC_NEXT[qi][i];
        let own = minus(deadline_bound(D_NEXT[qi][i]), cwc);
        let rest = minus(WCMIN_BUDGET[i + 1], cwc);
        admits(own.min(rest), t)
    };
    av_ok && wc_ok
}

/// Maximal admissible quality index, scanning downward.
pub fn max_feasible(i: usize, t: u64) -> Option<usize> {
    (0..N_QUALITIES).rev().find(|&qi| qual_const(qi, i, t))
}

fn deadline_bound(d: u64) -> i128 {
    if d == u64::MAX { i128::MAX } else { i128::from(d) }
}

/// Whether elapsed time `t` fits the slack `s` (`t <= s`).
fn admits(s: i128, t: u64) -> bool {
    s == i128::MAX || (t != u64::MAX && i128::from(t) <= s)
}

/// The slack `s` less the duration `c`; infinities absorb.
fn minus(s: i128, c: u64) -> i128 {
    if s == i128::MAX {
        s
    } else if s == i128::MIN || c == u64::MAX {
        i128::MIN
    } else {
        s - i128::from(c)
    }
}
"#,
    );
    out
}

/// Table size of the generated module in bytes (the figure the Section 3
/// code-size overhead compares against).
#[must_use]
pub fn generated_table_bytes(app: &ControlledApp) -> usize {
    let n = app.tables().len();
    let nq = app.tables().quality_count();
    // SCHEDULE u32 + AV_BUDGET i128 + WCMIN i128 + CWC/D u64 tables.
    4 * n + 16 * nq * (n + 1) + 16 * (n + 1) + 2 * 8 * nq * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::spec::ToolSpec;

    fn small_app() -> ControlledApp {
        let spec = ToolSpec::paper_encoder(3, 2_000_000);
        compile(&spec).unwrap()
    }

    #[test]
    fn generated_source_has_expected_shape() {
        let app = small_app();
        let src = generate_rust(&app);
        assert!(src.contains("pub const N_ACTIONS: usize = 27;"));
        assert!(src.contains("pub const N_QUALITIES: usize = 8;"));
        assert!(src.contains("pub static SCHEDULE: [u32; 27]"));
        assert!(src.contains("pub static AV_BUDGET: [[i128; 28]; 8]"));
        assert!(src.contains("pub static WCMIN_BUDGET: [i128; 28]"));
        assert!(src.contains("pub fn qual_const"));
        // Balanced braces (cheap syntactic sanity).
        assert_eq!(
            src.matches('{').count(),
            src.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn generated_numbers_match_live_tables() {
        let app = small_app();
        let src = generate_rust(&app);
        // Spot-check: the first WCMIN_BUDGET entry appears verbatim.
        let expected = app.tables().wcmin_budget_at(0);
        let value = expected.get();
        assert!(
            src.contains(&format!("{value}, ")),
            "missing wcmin value {value}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let app = small_app();
        assert_eq!(generate_rust(&app), generate_rust(&app));
    }

    #[test]
    fn table_bytes_accounting() {
        let app = small_app();
        let bytes = generated_table_bytes(&app);
        let n = 27;
        let nq = 8;
        assert_eq!(
            bytes,
            4 * n + 16 * nq * (n + 1) + 16 * (n + 1) + 16 * nq * n
        );
    }
}
